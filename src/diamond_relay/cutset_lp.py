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
plus four of the eight inequalities (rate <= cut_i, t_j >= 0) are tight, and
an active set names a vertex by those four.

solve_bound locates, certifies, then selects. By Shapley and Snow (1950,
Basic solutions of discrete games) the optimum sits on a square kernel
B = M[C, S] of the 4x4 cut matrix M, with t_S ~ B^-1 1. _locate scans the 53
kernels larger than 1x1 (a pure state leaves a cut at zero) in pure Python,
certifies the optimal one and proves which active sets can win there. The
selection runs over those, or over all 70 without a proof; numpy does one
array, one det (the screen) and one LAPACK solve, Python floats the rest:
feasibility filter (tracking the best rate), tie-break (a sort only among
two or more near-best vertices), each candidate judged alone through _cuts.
The schedule stays LAPACK's, as the closed-form one moves its last digit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel_model import LinkCapacities, _checked_reals, plain_dict
from .errors import DomainError, InvariantError

__all__ = ["CutSetSolution", "cut_values", "solve_bound"]

_FEASIBILITY_SLACK = 1e-9  # absolute slack when screening candidate vertices
_T_INPUT_SLACK = 1e-9  # slack accepted on cut_values inputs
_BINDING_REL_TOL = 1e-9
_TIE_REL_TOL = 1e-12  # vertices this close to the best rate tie
_ZERO = 1e-10  # what locate reads as zero, relative to the scale
_TRUSTED = 1e6 * _FEASIBILITY_SLACK  # least link that lets locate trust a degenerate vertex

# An active set names a vertex by its 4 tight constraints, sorted: i < 4 is rate = cut i + 1,
# 4 + j is t_(j+1) = 0. Row 8 is the simplex row, so set + (8,) picks the rows of its system.
_ALL_SETS = tuple(itertools.combinations(range(8), 4))
_STATE_ROWS = [float(i == j) for j in range(1, 5) for i in range(5)] + [0.0] + [1.0] * 4
_RHS = np.array([[0.0]] * 4 + [[1.0]])
# each set's 5x5 system as indices into the flat 9x5 table: cut rows, then _STATE_ROWS
_system_index = functools.cache(  # per set list: _ALL_SETS and the 154 _locate can return
    lambda sets: 5 * np.array([s + (8,) for s in sets])[:, :, None] + np.arange(5))
_TIE_ORDER = (0, 3, 1, 2)  # states in tie-break order: t1, t4, t2, t3

# The 53 kernels (cuts C, states S), |C| = |S| >= 2, most frequent winners first;
# every column of _cut_rows holds a zero, so a 1x1 kernel has v <= tol and never certifies
_FREQUENT = (
    ((0, 1, 2, 3), (0, 1, 2, 3)),  # all four cuts
    # three cuts over three states
    ((1, 2, 3), (0, 1, 3)), ((1, 2, 3), (0, 2, 3)), ((0, 2, 3), (0, 1, 2)),
    ((0, 1, 3), (0, 1, 2)), ((0, 2, 3), (1, 2, 3)), ((0, 1, 3), (1, 2, 3)),
    ((1, 2), (1, 2)),  # cuts 2 and 3 over t2, t3: the alternating schedule
)
_SUBSETS = [c for k in range(2, 5) for c in itertools.combinations(range(4), k)]
_KERNELS = list(_FREQUENT) + [(c, s) for c in _SUBSETS for s in _SUBSETS
                              if len(c) == len(s) and (c, s) not in _FREQUENT]


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

    to_dict = plain_dict


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
        DomainError: if t is not 4 finite ints or floats, has an entry below
            -1e-9, or does not sum to 1 within 1e-9.
    """
    t1, t2, t3, t4 = _checked_reals("t", t, 4, -_T_INPUT_SLACK)
    if abs(t1 + t2 + t3 + t4 - 1.0) > _T_INPUT_SLACK:
        raise DomainError(f"t must sum to 1, got sum = {t1 + t2 + t3 + t4}")
    return _cuts(_cut_rows(caps), t1, t2, t3, t4)  # type: ignore[return-value]


def _cuts(rows, t1: float, t2: float, t3: float, t4: float) -> tuple[float, ...]:
    """The cuts at one schedule; cut_values, _locate and _select all evaluate them here."""
    (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3) = rows
    return (t1 * a0 + t2 * b0 + t3 * c0 + t4 * d0, t1 * a1 + t2 * b1 + t3 * c1 + t4 * d1,
            t1 * a2 + t2 * b2 + t3 * c2 + t4 * d2, t1 * a3 + t2 * b3 + t3 * c3 + t4 * d3)


def _adjugate(b) -> list[list[float]]:
    """adj(b) of a 2x2 to 4x4 matrix, so that b @ adj(b) = det(b) I."""
    if len(b) == 2:
        return [[b[1][1], -b[0][1]], [-b[1][0], b[0][0]]]
    if len(b) == 3:  # columns are cross products of row pairs
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = b
        return [[b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1],
                [b2 * c0 - b0 * c2, c2 * a0 - c0 * a2, a2 * b0 - a0 * b2],
                [b0 * c1 - b1 * c0, c0 * a1 - c1 * a0, a0 * b1 - a1 * b0]]
    # Laplace expansion over the 2x2 minors of rows 0-1 (s) and rows 2-3 (c)
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = b
    s0, s1, s2 = a00 * a11 - a10 * a01, a00 * a12 - a10 * a02, a00 * a13 - a10 * a03
    s3, s4, s5 = a01 * a12 - a11 * a02, a01 * a13 - a11 * a03, a02 * a13 - a12 * a03
    c0, c1, c2 = a20 * a31 - a30 * a21, a20 * a32 - a30 * a22, a20 * a33 - a30 * a23
    c3, c4, c5 = a21 * a32 - a31 * a22, a21 * a33 - a31 * a23, a22 * a33 - a32 * a23
    return [[a11 * c5 - a12 * c4 + a13 * c3, -a01 * c5 + a02 * c4 - a03 * c3,
             a31 * s5 - a32 * s4 + a33 * s3, -a21 * s5 + a22 * s4 - a23 * s3],
            [-a10 * c5 + a12 * c2 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
             -a30 * s5 + a32 * s2 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1],
            [a10 * c4 - a11 * c2 + a13 * c0, -a00 * c4 + a01 * c2 - a03 * c0,
             a30 * s4 - a31 * s2 + a33 * s0, -a20 * s4 + a21 * s2 - a23 * s0],
            [-a10 * c3 + a11 * c1 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
             -a30 * s3 + a31 * s1 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0]]


def _locate(rows) -> tuple[tuple[int, ...], ...] | None:
    """The active sets the selection can pick, or None if unproven.

    Once t is optimal, dt[j] and drate bound how far a kept candidate (t >= -eps,
    rate <= cut + eps, near-best) is from t: too little to tighten a slack constraint.
    """
    scale = max(map(max, rows))
    tol = _ZERO * scale
    for cuts, states in _KERNELS if scale > 0.0 else ():
        b = rows if len(cuts) == 4 else [[rows[i][j] for j in states] for i in cuts]
        adj = _adjugate(b)
        sums = [sum(row) for row in adj]
        total = sum(sums)
        if total == 0.0:
            continue
        t = [0.0] * 4
        for j, u in zip(states, sums):
            t[j] = u / total
        if min(t) < -_ZERO:
            continue
        v = sum([x * row[0] for x, row in zip(b[0], adj)]) / total
        slack = [cut - v for cut in _cuts(rows, *t)]
        if v <= tol or min(slack) < -tol:
            continue
        y = [sum(col) / total for col in zip(*adj)]
        z = {j: v - sum([w * rows[i][j] for w, i in zip(y, cuts)])  # z_j for j outside S
             for j in range(4) if j not in states}
        if min(y) >= -_ZERO and min(z.values(), default=0.0) >= -tol:
            break
    else:
        return None
    noise = 1e-12 * (1.0 + scale)  # roundoff of a LAPACK vertex and its cuts
    eps = _FEASIBILITY_SLACK + noise
    window = 2 * _TIE_REL_TOL * max(1.0, v) + noise
    tight = [i for i in range(4) if slack[i] <= tol] + [4 + j for j in range(4) if t[j] <= _ZERO]
    if len(tight) == 4:
        # non-degenerate: rate - v = sum y_i (rate - cut_i) - sum z_j t_j, so a
        # near-best point breaks cut i by <= reach / y_i, state j by <= reach / z_j
        if min(y) <= 0.0 or min(z.values(), default=1.0) <= 0.0:
            return None
        reach = window + eps * (1.0 + sum(z.values()))
        dt, pushed, spill = [0.0] * 4, 0, [0] * len(cuts)  # spill = M[C, not S] t
        for j, w in z.items():
            dt[j] = max(eps, reach / w)
            pushed += w * dt[j]
            spill = [e + abs(rows[i][j]) * dt[j] for e, i in zip(spill, cuts)]
        drate = reach * len(y) + pushed
        shift = max([reach / w + e for w, e in zip(y, spill)])
        inv_norm = max([sum(map(abs, row)) for row in adj]) / abs(total * v)  # |B^-1|
        for j in states:  # t_S = B^-1 (rate 1 - broken amounts - M[C, not S] t)
            dt[j] = inv_norm * (drate + shift)
    elif 4 < len(tight) <= 6 and min(rows[2][0], rows[0][1], rows[3][1], rows[3][2]) >= _TRUSTED:
        # degenerate: a candidate outranking t keeps the zero states heading the
        # tie-break order within eps of 0; the tight cuts pin the one or two left
        n = [4 + j in tight for j in _TIE_ORDER].index(False)  # zero states heading that order
        first, last = _TIE_ORDER[n], _TIE_ORDER[3]
        slopes = [rows[i][first] - rows[i][last] for i in tight if i < 4]
        pin = min(max(slopes), -min(slopes)) if n == 2 else math.inf
        if n < 2 or 4 + last in tight or pin <= tol:  # 3 or 4 states left, or last is 0
            return None
        dt = [eps] * 4  # with t[first] + t[last] fixed, opposite slopes pin it
        dt[first] = (window + eps * (1.0 + 4 * scale)) / pin
        dt[last] = dt[first] + 4 * eps
        drate = window + eps + max([sum(map(abs, rows[i])) for i in tight if i < 4]) * max(dt)
    else:
        return None
    for i, (p, q, r, s) in enumerate(rows):  # each slack cut and state against its reach
        moved = drate + (abs(p) * dt[0] + abs(q) * dt[1] + abs(r) * dt[2] + abs(s) * dt[3])
        if i not in tight and slack[i] <= 2 * moved or 4 + i not in tight and t[i] <= 2 * dt[i]:
            return None
    return tuple(itertools.combinations(tight, 4))  # tight is sorted


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # as solve sets for itself
def _select(rows, sets) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """(t, cut values at t) of the best feasible vertex over the active sets, or None."""
    # each system over (rate, t1..t4): rate - cut_i = 0 or t_j = 0, sum t = 1
    table = [v for p, q, r, s in rows for v in (1.0, -p, -q, -r, -s)] + _STATE_ROWS
    a = np.array(table)[_system_index(sets)]
    dets = np.linalg.det(a).tolist()  # a subnormal or huge entry may make it 0 or inf
    # skip singular sets: |det| against the row norms' Hadamard bound, scale-free; a
    # state row's norm is 1, the simplex row's 2, each product taken in numpy's order
    norm = [math.sqrt(1.0 + p * p + q * q + r * r + s * s) for p, q, r, s in rows] + [1.0] * 4
    screen = [abs(d) > 1e-10 * (norm[i] * norm[j] * norm[k] * norm[m] * 2.0)
              for d, (i, j, k, m) in zip(dets, sets)]
    if not all(screen):
        a = a.compress(screen, axis=0)
    low, best, feasible = -_FEASIBILITY_SLACK, -math.inf, []
    for row in np.linalg.solve(a, _RHS)[:, :, 0].tolist():
        rate, t1, t2, t3, t4 = row
        if t1 >= low and t2 >= low and t3 >= low and t4 >= low:
            if rate <= min(_cuts(rows, t1, t2, t3, t4)) + _FEASIBILITY_SLACK:
                if all(map(math.isfinite, row)):
                    feasible.append(row)
                    best = max(best, rate)
    if not feasible:
        return None
    floor = best - _TIE_REL_TOL * max(1.0, abs(best))
    ranked = [row for row in feasible if row[0] >= floor]
    if len(ranked) > 1:
        # round to 12 decimals so vertices that differ only by solve noise tie,
        # then prefer small t in _TIE_ORDER (a stable sort). np.round(x, 12) is
        # rint(x * 1e12) / 1e12 and sorts as rint(x * 1e12); round(x, 12) does not
        k1, k2, k3, k4 = (1 + j for j in _TIE_ORDER)  # a row is (rate, t1, t2, t3, t4)
        ranked.sort(key=lambda r: (round(r[k1] * 1e12), round(r[k2] * 1e12),
                                   round(r[k3] * 1e12), round(r[k4] * 1e12)))
    first = None
    for row in ranked:
        # negative entries are roundoff of a feasible vertex; <= also maps -0.0 to 0
        t = [v if v > 0.0 else 0.0 for v in row[1:]]
        total = ((t[0] + t[1]) + t[2]) + t[3]
        t_final = tuple([v / total for v in t])
        values = _cuts(rows, *t_final)
        first = first or (t_final, values)
        if min(values) >= floor:  # else clamping lost the tie window: next
            return t_final, values
    return first


def solve_bound(caps: LinkCapacities) -> CutSetSolution:
    """Maximize the minimum cut over the four-state scheduling simplex.

    Exact vertex enumeration over the active sets that can win (all 70 when
    that is unproven): each yields a 5x5 linear system in (rate, t1..t4);
    near-singular systems are skipped, infeasible solutions discarded, and the
    best feasible vertex wins. Ties go to the smallest (t1, t4, t2, t3), which
    never idles both relays on one side, unless clamping drops it from the tie.
    """
    rows = _cut_rows(caps)
    sets = _locate(rows)
    chosen = (sets and _select(rows, sets)) or _select(rows, _ALL_SETS)
    if chosen is None:  # the simplex is nonempty and compact
        raise InvariantError("no feasible vertex found; enumeration is broken")
    t, values = chosen
    bound = min(values)
    tol = _BINDING_REL_TOL * max(1.0, bound)
    binding = frozenset(i + 1 for i, v in enumerate(values) if v - bound <= tol)
    return CutSetSolution(t=t, bound=bound, cut_values=values, binding=binding)
