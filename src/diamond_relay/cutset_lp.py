"""Half-duplex cut-set upper bound as an exact small linear program.

The two half-duplex relays induce four transmission states: both relays
listening, only relay 1 transmitting, only relay 2 transmitting, and both
transmitting. A schedule spends fractions t1..t4 of the time in these states.
Each source/destination cut accumulates capacity only in the states where
links crossing it are active:

    cut 1 (source vs rest):        t1*c012 + t2*c02 + t3*c01
    cut 2 (source+relay1 vs rest): t1*c02  + t2*(c02 + c13) + t4*c13
    cut 3 (source+relay2 vs rest): t1*c01  + t3*(c01 + c23) + t4*c23
    cut 4 (rest vs destination):   t2*c13  + t3*c23 + t4*c123

The bound is the maximum over schedules of the minimum cut. With the rate
adjoined as a fifth unknown this is a five-variable LP; the feasible set
contains no line, so an optimum sits at a vertex where the simplex equality
plus four of the eight inequalities (rate <= cut_i, t_j >= 0) are tight.
solve_bound enumerates every such active set exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel_model import LinkCapacities, plain_dict
from .errors import DomainError, InvariantError

__all__ = ["CutSetSolution", "cut_values", "solve_bound"]

_FEASIBILITY_SLACK = 1e-9  # absolute slack when screening candidate vertices
_T_INPUT_SLACK = 1e-9  # slack accepted on cut_values inputs
_BINDING_REL_TOL = 1e-9

# Every choice of 4 active constraints out of 8 (cut rows first, then the
# four nonnegativity rows); 70 candidate vertices in total.
_ACTIVE_SETS = np.array(list(itertools.combinations(range(8), 4)), dtype=np.intp)


@dataclass(frozen=True)
class CutSetSolution:
    """Optimal schedule and value of the min-cut maximization.

    binding holds the 1-based indices of the cuts within tolerance of the
    bound; it is never empty because the bound is the minimum cut.
    """

    t: tuple[float, float, float, float]
    bound: float
    cut_values: tuple[float, float, float, float]
    binding: frozenset[int]

    def to_dict(self) -> dict[str, object]:
        return plain_dict(self)


def _cut_rows(caps: LinkCapacities) -> tuple[tuple[float, float, float, float], ...]:
    # rows = cuts, columns = per-state capacity of that cut
    return (
        (caps.c012, caps.c02, caps.c01, 0.0),
        (caps.c02, caps.c02 + caps.c13, 0.0, caps.c13),
        (caps.c01, 0.0, caps.c01 + caps.c23, caps.c23),
        (0.0, caps.c13, caps.c23, caps.c123),
    )


def cut_values(
    caps: LinkCapacities, t: tuple[float, float, float, float]
) -> tuple[float, float, float, float]:
    """Evaluate the four cuts at a schedule t = (t1, t2, t3, t4).

    Raises:
        DomainError: if t is not 4 finite numbers, has an entry below
            -1e-9, or does not sum to 1 within 1e-9.
    """
    try:
        t1, t2, t3, t4 = (float(x) for x in t)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"t must be 4 real numbers, got {t!r}") from exc
    if not all(math.isfinite(x) for x in (t1, t2, t3, t4)):
        raise DomainError(f"t must be finite, got {t!r}")
    if min(t1, t2, t3, t4) < -_T_INPUT_SLACK:
        raise DomainError(f"t entries must be >= 0, got {t!r}")
    if abs(t1 + t2 + t3 + t4 - 1.0) > _T_INPUT_SLACK:
        raise DomainError(f"t must sum to 1, got sum = {t1 + t2 + t3 + t4}")
    return tuple(  # type: ignore[return-value]
        t1 * a + t2 * b + t3 * c + t4 * d for a, b, c, d in _cut_rows(caps)
    )


def solve_bound(caps: LinkCapacities) -> CutSetSolution:
    """Maximize the minimum cut over the four-state scheduling simplex.

    Exact vertex enumeration: each candidate active set yields a 5x5 linear
    system in (rate, t1..t4); near-singular systems are skipped, infeasible
    solutions discarded, and the best feasible vertex wins. Ties are broken
    by the lexicographically smallest (t1, t4, t2, t3), which prefers
    schedules that never idle both relays on the same side.
    """
    m = np.array(_cut_rows(caps))

    # the 8 inequalities as equality rows over x = (rate, t1..t4)
    rows = np.zeros((8, 5))
    rows[:4, 0] = 1.0
    rows[:4, 1:] = -m
    rows[4:, 1:] = np.eye(4)

    n_sets = len(_ACTIVE_SETS)
    a = np.empty((n_sets, 5, 5))
    a[:, :4, :] = rows[_ACTIVE_SETS]
    a[:, 4, 0] = 0.0
    a[:, 4, 1:] = 1.0
    b = np.zeros((n_sets, 5))
    b[:, 4] = 1.0

    # skip singular active sets: compare |det| against the Hadamard bound of
    # the row norms so the screen is scale-free
    dets = np.linalg.det(a)
    hadamard = np.linalg.norm(a, axis=2).prod(axis=1)
    solvable = np.abs(dets) > 1e-10 * hadamard

    x = np.linalg.solve(a[solvable], b[solvable][:, :, None])[:, :, 0]
    x = x[np.isfinite(x).all(axis=1)]
    rate = x[:, 0]
    t = x[:, 1:]
    cuts = t @ m.T
    feasible = (t >= -_FEASIBILITY_SLACK).all(axis=1)
    feasible &= rate <= cuts.min(axis=1) + _FEASIBILITY_SLACK
    if not feasible.any():  # the simplex is nonempty and compact
        raise InvariantError("no feasible vertex found; enumeration is broken")
    rate = rate[feasible]
    t = t[feasible]

    best = rate.max()
    near_best = rate >= best - 1e-12 * max(1.0, abs(best))
    candidates = t[near_best]
    # round before comparing so vertices that differ only by solve noise tie,
    # then prefer small t1, then small t4, then small t2
    keys = np.round(candidates[:, [0, 3, 1, 2]], 12)
    order = np.lexsort((keys[:, 3], keys[:, 2], keys[:, 1], keys[:, 0]))
    t_opt = candidates[order[0]].copy()

    # negative entries here are roundoff of a feasible vertex; <= also
    # normalizes -0.0 from the solve to +0.0
    t_opt[t_opt <= 0.0] = 0.0
    t_opt /= t_opt.sum()
    t_final = tuple(float(v) for v in t_opt)

    values = cut_values(caps, t_final)
    bound = min(values)
    tol = _BINDING_REL_TOL * max(1.0, bound)
    binding = frozenset(i + 1 for i, v in enumerate(values) if v - bound <= tol)
    return CutSetSolution(t=t_final, bound=bound, cut_values=values, binding=binding)
