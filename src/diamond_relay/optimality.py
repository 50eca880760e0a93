"""Capacity certification for the diamond channel.

The alternating schedule achieves the cut-set bound whenever the capacity
products match: c01*c02 = c13*c23. This module classifies instances by which
equal-branch condition they satisfy (matching products, matching source
sides, or matching relay sides), predicts the branch rate for that case,
builds the schedule t* that equalizes all four cuts under the product
condition, numerically replays the perturbation argument showing t* cannot
be improved, and assembles everything into a certification report.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from .channel_model import (
    ChannelSpec,
    LinkCapacities,
    _checked_value,
    derive_capacities,
    plain_dict,
)
from .cutset_lp import cut_values, solve_bound
from .errors import (
    ConditionError,
    DomainError,
    FeasibilityError,
    HypothesisError,
    InvariantError,
    NegativeGapError,
)
from .sr_rate import normalized_form, sr_rate_min_form

__all__ = [
    "LemmaCase",
    "OptimalityReport",
    "PerturbationSpec",
    "product_condition_holds",
    "classify",
    "predicted_rate",
    "t_star",
    "perturbation_check",
    "certify",
    "certify_capacities",
]

_PRODUCT_TOL = 1e-9  # condition instances are constructed exactly; this absorbs rounding
_CERT_GAP_REL_TOL = 1e-8
_EQUAL_CUTS_REL_TOL = 1e-9
_NORMAL = 2.0**-1022  # the smallest normal float


class LemmaCase(enum.Enum):
    """Which equal-branch condition an instance satisfies."""

    PRODUCT_EQUAL = "product_equal"
    SOURCE_SIDES_EQUAL = "source_sides_equal"
    RELAY_SIDES_EQUAL = "relay_sides_equal"
    NONE = "none"


@dataclass(frozen=True)
class OptimalityReport:
    """Certification summary for one instance.

    capacity_certified is true exactly when the product condition holds and
    the measured gap is within 1e-8 relative of zero; predicted_rate and
    t_star are present only when a case applies / the product condition holds.
    """

    lemma_case: LemmaCase
    condition_holds: bool
    predicted_rate: float | None
    t_star: tuple[float, float, float, float] | None
    gap: float
    capacity_certified: bool
    r_sr: float
    bound: float
    hypothesis_warning: str | None = None

    to_dict = plain_dict


@dataclass(frozen=True)
class PerturbationSpec:
    """A time-conserving move away from the equalizing schedule t*.

    epsilon and eta are nonnegative additions to t1* and t4*; gamma and delta
    are subtractions from t2* and t3* (either may be negative on its own).
    Conservation of time forces gamma + delta = epsilon + eta.
    """

    epsilon: float
    eta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        for field in fields(self):
            low = 0.0 if field.name in ("epsilon", "eta") else None
            value = _checked_value(field.name, getattr(self, field.name), low)
            object.__setattr__(self, field.name, value)
        imbalance = self.gamma + self.delta - self.epsilon - self.eta
        if abs(imbalance) > 1e-12:
            raise DomainError(
                "gamma + delta must equal epsilon + eta (time conservation); "
                f"off by {imbalance}"
            )


def _products(caps: LinkCapacities) -> tuple[float, float]:
    """c01*c02 and c13*c23, both times one power of two where either is not normal.

    That power keeps the larger product in [1/4, 1), so neither underflows
    to 0 nor overflows where the other does not: ordering and relative
    agreement are those of the exact products of the links.
    """
    p_source, p_relay = caps.c01 * caps.c02, caps.c13 * caps.c23
    if not (_NORMAL <= p_source < math.inf and _NORMAL <= p_relay < math.inf):
        (a, i), (b, j), (c, k), (d, l) = map(math.frexp, (caps.c01, caps.c02, caps.c13, caps.c23))
        m_source, m_relay = a * b, c * d  # in [1/4, 1), or 0 where a link is 0
        shift = max(i + j if m_source else k + l, k + l if m_relay else i + j)
        p_source, p_relay = math.ldexp(m_source, i + j - shift), math.ldexp(m_relay, k + l - shift)
    return p_source, p_relay


def product_condition_holds(caps: LinkCapacities) -> bool:
    """True when c01*c02 and c13*c23 agree within 1e-9 relative."""
    p_source, p_relay = _products(caps)
    return abs(p_source - p_relay) <= _PRODUCT_TOL * max(p_source, p_relay)


def _require_positive_links(caps: LinkCapacities) -> None:
    for name in ("c01", "c02", "c13", "c23"):
        if getattr(caps, name) <= 0.0:
            raise HypothesisError(
                f"{name} = 0: equal-branch analysis needs all four link capacities positive"
            )


def classify(caps: LinkCapacities) -> LemmaCase:
    """Which equal-branch condition the instance satisfies, if any.

    The two branch rates coincide exactly when one of three conditions holds,
    checked in this order (only the first one is capacity-achieving, so it
    wins overlaps):

    1. the capacity products match: c01*c02 = c13*c23;
    2. the source sides match, c01 = c02, with c01*c02 <= c13*c23;
    3. the relay sides match, c13 = c23, with c01*c02 >= c13*c23.

    All comparisons use a 1e-9 relative tolerance.

    Raises:
        HypothesisError: if any link capacity is 0.
    """
    _require_positive_links(caps)
    p_source, p_relay = _products(caps)
    if abs(p_source - p_relay) <= _PRODUCT_TOL * max(p_source, p_relay):
        return LemmaCase.PRODUCT_EQUAL
    if abs(caps.c01 - caps.c02) <= _PRODUCT_TOL * max(caps.c01, caps.c02) and p_source <= p_relay:
        return LemmaCase.SOURCE_SIDES_EQUAL
    if abs(caps.c13 - caps.c23) <= _PRODUCT_TOL * max(caps.c13, caps.c23) and p_source >= p_relay:
        return LemmaCase.RELAY_SIDES_EQUAL
    return LemmaCase.NONE


def predicted_rate(caps: LinkCapacities, lemma_case: LemmaCase) -> float:
    """The common branch rate under the given equal-branch condition.

    Matching products: c01*(c13 + c02)/(c13 + c01). Matching source sides:
    c02. Matching relay sides: c13.

    Raises:
        DomainError: if lemma_case is not a LemmaCase.
        ConditionError: for the no-condition case.
    """
    if not isinstance(lemma_case, LemmaCase):
        raise DomainError(f"lemma_case must be a LemmaCase, got {lemma_case!r}")
    if lemma_case is LemmaCase.NONE:
        raise ConditionError("no equal-branch condition holds; there is no predicted rate")
    if lemma_case is LemmaCase.PRODUCT_EQUAL:
        return caps.c01 * (caps.c13 + caps.c02) / (caps.c13 + caps.c01)
    if lemma_case is LemmaCase.SOURCE_SIDES_EQUAL:
        return caps.c02
    return caps.c13


def t_star(caps: LinkCapacities) -> tuple[float, float, float, float]:
    """The schedule that equalizes all four cuts under the product condition.

    Returns (0, c01/(c13 + c01), c02/(c02 + c23), 0). The product condition
    makes the two middle entries sum to 1, and every cut then evaluates to
    the predicted rate: the cut-capacity terms c012 and c123 never enter
    because no time is spent in the states that use them.

    Raises:
        HypothesisError: if any link capacity is 0.
        ConditionError: if the product condition fails.
    """
    _require_positive_links(caps)
    if not product_condition_holds(caps):
        raise ConditionError(
            f"capacity products differ: c01*c02 = {caps.c01 * caps.c02} "
            f"vs c13*c23 = {caps.c13 * caps.c23}"
        )
    return (0.0, caps.c01 / (caps.c13 + caps.c01), caps.c02 / (caps.c02 + caps.c23), 0.0)


def perturbation_check(
    caps: LinkCapacities, pert: PerturbationSpec
) -> tuple[float, float]:
    """First-order change of cuts 2 and 3 when t* is perturbed.

    Moving the schedule to (t1* + epsilon, t2* - gamma, t3* - delta,
    t4* + eta) changes cut 2 by k*c02 and cut 3 by -k*c01/alpha, where
    k = epsilon - gamma*(1 + alpha) + alpha*eta and alpha = c13/c02. The two
    changes are computed from the shared factor k, so they carry exactly
    opposite signs (or are zero): every time-conserving move lowers
    min(cut2, cut3), which is why t* is optimal. Both conclusions are also
    re-verified against exact cut evaluations, and the cuts being linear in t
    means the "first-order" formulas are in fact exact.

    Returns:
        (delta_c2, delta_c3).

    Raises:
        FeasibilityError: when the perturbed schedule leaves the simplex.
    """
    base = t_star(caps)
    perturbed = (
        base[0] + pert.epsilon,
        base[1] - pert.gamma,
        base[2] - pert.delta,
        base[3] + pert.eta,
    )
    if min(perturbed) < -1e-12:
        raise FeasibilityError(f"perturbed schedule leaves the simplex: t = {perturbed}")
    perturbed = tuple(0.0 if v < 0.0 else v for v in perturbed)

    a, b, alpha, _ = normalized_form(caps)
    k = pert.epsilon - pert.gamma * (1.0 + alpha) + alpha * pert.eta
    # + 0.0 keeps a vanishing k from leaking -0.0 into the reported deltas
    delta_c2 = k * a + 0.0
    delta_c3 = -k * b / alpha + 0.0

    base_cuts = cut_values(caps, base)
    pert_cuts = cut_values(caps, perturbed)
    scale = max(1.0, abs(base_cuts[1]), abs(base_cuts[2]))
    if abs((pert_cuts[1] - base_cuts[1]) - delta_c2) > 1e-9 * scale:
        raise InvariantError("cut-2 delta disagrees with its exact evaluation")
    if abs((pert_cuts[2] - base_cuts[2]) - delta_c3) > 1e-9 * scale:
        raise InvariantError("cut-3 delta disagrees with its exact evaluation")
    if delta_c2 * delta_c3 > 0.0:
        raise InvariantError("cut deltas must have opposite signs or vanish")
    if min(pert_cuts[1], pert_cuts[2]) > min(base_cuts[1], base_cuts[2]) + 1e-12:
        raise InvariantError("perturbing t* must not raise min(cut2, cut3)")
    return delta_c2, delta_c3


def certify(spec: ChannelSpec) -> OptimalityReport:
    """Full certification pipeline for one channel instance."""
    return certify_capacities(derive_capacities(spec))


def certify_capacities(caps: LinkCapacities) -> OptimalityReport:
    """Certification directly from capacities.

    Computes the achievable rate and the cut-set bound, classifies the
    instance, and certifies when the product condition holds and the gap is
    zero within 1e-8 relative. Instances with a zero-capacity link are not
    refused: they get lemma_case = NONE, a hypothesis warning, and the
    condition flag computed anyway.
    """
    rate = sr_rate_min_form(caps)
    solution = solve_bound(caps)
    gap = solution.bound - rate.r_sr
    if gap < -1e-9:
        raise NegativeGapError(
            f"achievable rate {rate.r_sr} exceeds the cut-set bound {solution.bound}; "
            "the bound solver is broken"
        )

    condition = product_condition_holds(caps)
    warning = prediction = star = None
    try:
        case = classify(caps)
    except HypothesisError:
        case = LemmaCase.NONE
        warning = (
            "zero-capacity link: equal-branch conditions assume all four "
            "link capacities are positive"
        )
    if case is not LemmaCase.NONE:
        prediction = predicted_rate(caps, case)
    if case is LemmaCase.PRODUCT_EQUAL:
        star = t_star(caps)
        star_cuts = cut_values(caps, star)
        spread = max(star_cuts) - min(star_cuts)
        if spread > _EQUAL_CUTS_REL_TOL * max(1.0, max(star_cuts)):
            raise InvariantError(
                f"t* = {star} fails to equalize the cuts: {star_cuts}"
            )

    certified = condition and gap <= _CERT_GAP_REL_TOL * max(1.0, solution.bound)
    return OptimalityReport(
        lemma_case=case,
        condition_holds=condition,
        predicted_rate=prediction,
        t_star=star,
        gap=gap,
        capacity_certified=certified,
        r_sr=rate.r_sr,
        bound=solution.bound,
        hypothesis_warning=warning,
    )
