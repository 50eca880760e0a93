"""Capacity certification for the diamond channel.

The alternating schedule achieves the cut-set bound whenever the capacity
products match: c01*c02 = c13*c23. This module classifies instances by which
equal-branch condition they satisfy (matching products, matching source
sides, or matching relay sides), predicts the branch rate for that case,
builds the schedule t* that equalizes all four cuts under the product
condition, evaluates the perturbation argument showing t* cannot be improved
(the paper's two closed-form cut changes, computed exactly and rounded once),
and assembles everything into a certification report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .channel_model import (
    ChannelSpec,
    LinkCapacities,
    _check_fields,
    _integers,
    derive_capacities,
    plain_dict,
)
from .cutset_lp import solve_bound
from .errors import (
    ConditionError,
    DomainError,
    FeasibilityError,
    HypothesisError,
    NegativeGapError,
)
from .sr_rate import sr_rate_min_form

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
    |gap| <= 1e-8 * bound: one relative rule at every scale, so a bound below
    the rate by more than that is never certified; predicted_rate and t_star
    are present only when a case applies / the product condition holds.
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
        _check_fields(self, ("epsilon", "eta"))
        _check_fields(self, ("gamma", "delta"), None)
        imbalance = self.gamma + self.delta - self.epsilon - self.eta
        if abs(imbalance) > 1e-12:
            raise DomainError(
                "gamma + delta must equal epsilon + eta (time conservation); "
                f"off by {imbalance}"
            )


def _agree(x: int, y: int) -> bool:
    """True when the ints x and y agree within 1e-9 relative, compared exactly."""
    # condition instances are constructed exactly; the tolerance absorbs rounding
    return abs(x - y) * 10**9 <= max(x, y)


def product_condition_holds(caps: LinkCapacities) -> bool:
    """True when c01*c02 and c13*c23 agree within 1e-9 relative."""
    _, a, b, c, d, _, _ = _integers(caps)
    return _agree(a * b, c * d)


def _positive_view(caps: LinkCapacities) -> tuple[int, int, int, int, int, int, int]:
    """The integer view of caps, refused with HypothesisError when a link is 0."""
    for name in ("c01", "c02", "c13", "c23"):
        if getattr(caps, name) <= 0.0:
            raise HypothesisError(f"{name} = 0: equal-branch analysis needs all four "
                                  "link capacities positive")
    return _integers(caps)


def classify(caps: LinkCapacities) -> LemmaCase:
    """Which equal-branch condition the instance satisfies, if any.

    The two branch rates coincide exactly when one of three conditions holds,
    checked in this order (only the first one is capacity-achieving, so it
    wins overlaps):

    1. the capacity products match: c01*c02 = c13*c23;
    2. the source sides match, c01 = c02, with c01*c02 <= c13*c23;
    3. the relay sides match, c13 = c23, with c01*c02 >= c13*c23.

    Every comparison reads only the exact integer view of the instance, with a
    1e-9 relative tolerance, so no verdict depends on the unit of capacity.

    Raises:
        HypothesisError: if any link capacity is 0.
    """
    _, a, b, c, d, _, _ = _positive_view(caps)
    p_source, p_relay = a * b, c * d
    if _agree(p_source, p_relay):
        return LemmaCase.PRODUCT_EQUAL
    if _agree(a, b) and p_source <= p_relay:
        return LemmaCase.SOURCE_SIDES_EQUAL
    if _agree(c, d) and p_source >= p_relay:
        return LemmaCase.RELAY_SIDES_EQUAL
    return LemmaCase.NONE


def predicted_rate(caps: LinkCapacities, lemma_case: LemmaCase) -> float:
    """The common branch rate under the given equal-branch condition.

    Matching products: c01*(c13 + c02)/(c13 + c01), evaluated exactly and
    rounded once. Matching source sides: c02. Matching relay sides: c13.

    Raises:
        HypothesisError: if any link capacity is 0.
        DomainError: if lemma_case is not a LemmaCase.
        ConditionError: for the no-condition case.
    """
    D, a, b, c, _, _, _ = _positive_view(caps)
    if not isinstance(lemma_case, LemmaCase):
        raise DomainError(f"lemma_case must be a LemmaCase, got {lemma_case!r}")
    if lemma_case is LemmaCase.NONE:
        raise ConditionError("no equal-branch condition holds; there is no predicted rate")
    if lemma_case is LemmaCase.PRODUCT_EQUAL:
        return a * (c + b) / (D * (c + a))
    if lemma_case is LemmaCase.SOURCE_SIDES_EQUAL:
        return caps.c02
    return caps.c13


def t_star(caps: LinkCapacities) -> tuple[float, float, float, float]:
    """The schedule that equalizes all four cuts under the product condition.

    Returns (0, c01/(c13 + c01), c02/(c02 + c23), 0), each entry evaluated
    exactly and rounded once, so correctly rounded at every scale. The product
    condition makes the two middle entries sum to 1, and every cut then
    evaluates to the predicted rate: the cut-capacity terms c012 and c123
    never enter because no time is spent in the states that use them.

    Raises:
        HypothesisError: if any link capacity is 0.
        ConditionError: if the product condition fails; the message gives the
            exact relative mismatch |p - q| / max(p, q) of the two products.
    """
    _, a, b, c, d, _, _ = _positive_view(caps)
    p, q = a * b, c * d
    if not _agree(p, q):
        raise ConditionError(f"c01*c02 and c13*c23 differ by {abs(p - q) / max(p, q)} relative")
    return (0.0, a / (c + a), b / (b + d), 0.0)


def _rounded(num: int, den: int) -> float:
    """num/den correctly rounded for den > 0: past the largest double that is a
    signed inf, where Python's int division raises OverflowError instead."""
    try:
        return num / den
    except OverflowError:
        return float("inf") if num > 0 else float("-inf")


def perturbation_check(
    caps: LinkCapacities, pert: PerturbationSpec
) -> tuple[float, float]:
    """Change of cuts 2 and 3 when t* is perturbed.

    Moving the schedule to (t1* + epsilon, t2* - gamma, t3* - delta,
    t4* + eta) changes cut 2 by k*c02 = epsilon*c02 - gamma*(c02 + c13) +
    eta*c13 and cut 3 by -k*c01*c02/c13. These are the paper's closed forms,
    each evaluated exactly and rounded once, so correctly rounded at every
    scale, ±inf included past the largest double. They are the exact changes
    of the cuts when c01*c02 = c13*c23: cut 2's is its row times the move,
    and cut 3's needs the products equal.
    The shared factor k gives the two opposite signs (or makes both zero), so
    every time-conserving move lowers min(cut2, cut3), which is why t* is
    optimal. Nothing is re-checked in floats, so no InvariantError is raised.

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

    D, a, b, c, _, _, _ = _integers(caps)
    (ne, de), (ng, dg), (nh, dh) = (
        v.as_integer_ratio() for v in (pert.epsilon, pert.gamma, pert.eta))
    k_c02 = ne * dg * dh * b - ng * de * dh * (b + c) + nh * de * dg * c  # over de*dg*dh*D
    return _rounded(k_c02, de * dg * dh * D), _rounded(-k_c02 * a, de * dg * dh * D * c)


def certify(spec: ChannelSpec) -> OptimalityReport:
    """Full certification pipeline for one channel instance."""
    return certify_capacities(derive_capacities(spec))


def certify_capacities(caps: LinkCapacities) -> OptimalityReport:
    """Certification directly from capacities.

    Computes the achievable rate and the cut-set bound, classifies the
    instance, and certifies when the product condition holds and
    |gap| <= 1e-8 * bound, a rule relative to the bound at every scale.
    Instances with a zero-capacity link are not refused: they get
    lemma_case = NONE, a hypothesis warning, and the condition flag computed
    anyway.

    Raises:
        NegativeGapError: from the gap guard, when the achievable rate
            exceeds the cut-set bound by more than 1e-9.
        InvariantError: only from solve_bound, when it finds no feasible
            vertex.
    """
    rate = sr_rate_min_form(caps)
    solution = solve_bound(caps)
    gap = solution.bound - rate.r_sr
    if gap < -1e-9:
        raise NegativeGapError(
            f"achievable rate {rate.r_sr} exceeds the cut-set bound {solution.bound}; "
            "the bound solver is broken"
        )

    warning = prediction = star = None
    try:
        case = classify(caps)
        condition = case is LemmaCase.PRODUCT_EQUAL  # classify tests that first
    except HypothesisError:
        case = LemmaCase.NONE
        condition = product_condition_holds(caps)
        warning = (
            "zero-capacity link: equal-branch conditions assume all four "
            "link capacities are positive"
        )
    if case is not LemmaCase.NONE:
        prediction = predicted_rate(caps, case)
    if case is LemmaCase.PRODUCT_EQUAL:
        star = t_star(caps)

    certified = condition and abs(gap) <= 1e-8 * solution.bound
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
