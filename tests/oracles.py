"""Independent reference implementations used to check the package.

Everything here is deliberately written against the defining optimization
problems rather than the closed forms the package uses: the achievable rate
as a brute-force search over the phase split, and the scheduling bound as a
grid search over the time-sharing simplex. Slow and obvious on purpose.

exact_bound solves the same LP in rational arithmetic: the reference for
how far solve_bound's float answer is from the true optimum. kernel_bound
finds the same optimum by a scan of square kernels of the cut matrix with
integer sign tests, in about a millisecond; Tier-1 holds it to exact_bound.

reference_select is the selection as it stood before its fixed costs were
cut; selection_check holds the package's _select to it, bit for bit.
reference_locate is the locate step as it stood before its margin proof was
made straight-line; locate_check holds _locate to it, sets and None alike.

The differential check near the end holds solve_bound to its own selection
over all 70 active sets, on seeded corpora, optionally scaled;
`python tests/oracles.py N [SCALE]` runs it, the selection check and the
locate check on N instances of each family. Both runs judge each candidate vertex on its own,
with the same cut evaluator, so the located run can decline only when the
determinant screen drops the located set.

SYMMETRIES, last, are the input maps that leave the LP's value exactly
unchanged: a correctly rounded solver gives bit-identical bounds under each.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np

from diamond_relay import LinkCapacities


def best_phase_split_rate(caps: LinkCapacities, n_grid: int = 20001) -> float:
    """Maximize the alternating-schedule rate over a dense grid of splits.

    A split lam is the fraction of time in the phase where relay 1 listens
    and relay 2 forwards; each relay carries the smaller of what it can
    decode and what it can deliver. The objective is piecewise linear in the
    split with breakpoints where either relay's decode and delivery
    constraints cross, so the two exact crossing points are always included
    alongside the grid.
    """
    lams = list(np.linspace(0.0, 1.0, n_grid))
    if caps.c13 + caps.c01 > 0.0:
        lams.append(caps.c13 / (caps.c13 + caps.c01))
    if caps.c23 + caps.c02 > 0.0:
        lams.append(caps.c02 / (caps.c23 + caps.c02))
    lam = np.array(lams)
    through_1 = np.minimum(lam * caps.c01, (1.0 - lam) * caps.c13)
    through_2 = np.minimum((1.0 - lam) * caps.c02, lam * caps.c23)
    return float((through_1 + through_2).max())


def min_cut(caps: LinkCapacities, t1: float, t2: float, t3: float, t4: float) -> float:
    """Smallest of the four weighted cuts at a given time-sharing vector."""
    return min(
        t1 * caps.c012 + t2 * caps.c02 + t3 * caps.c01,
        t1 * caps.c02 + t2 * (caps.c02 + caps.c13) + t4 * caps.c13,
        t1 * caps.c01 + t3 * (caps.c01 + caps.c23) + t4 * caps.c23,
        t2 * caps.c13 + t3 * caps.c23 + t4 * caps.c123,
    )


def grid_oracle_bound_naive(caps: LinkCapacities, step: float) -> float:
    """Literal lattice search over the simplex; cubic in 1/step, keep coarse."""
    n = round(1.0 / step)
    best = 0.0
    for i in range(n + 1):
        t1 = i * step
        for j in range(n + 1 - i):
            t2 = j * step
            for k in range(n + 1 - i - j):
                t3 = k * step
                t4 = (n - i - j - k) * step
                best = max(best, min_cut(caps, t1, t2, t3, t4))
    return best


@lru_cache(maxsize=4)
def _pair_lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) with i + j <= n, as flat integer arrays."""
    i = np.repeat(np.arange(n + 1), np.arange(n + 1, 0, -1))
    j = np.concatenate([np.arange(n + 1 - v) for v in range(n + 1)])
    return i, j


def grid_oracle_bound(caps: LinkCapacities, step: float = 1e-3) -> float:
    """Same lattice search as the naive version, restructured to be fast.

    Fix a lattice pair (t1, t2), leaving s = 1 - t1 - t2 to share between
    t3 = x and t4 = s - x. Cuts 1 and 3 both rise with slope c01 in x, so
    together they are one rising line min(b1, b3) + c01 x. Cut 2 falls with
    slope c13 and cut 4 with slope c123 - c23 >= 0, since the joint relay
    cut is never weaker than either relay link (LinkCapacities checks this).
    The minimum cut is therefore concave in x: it follows the rising line up
    to the first point where the line meets a falling cut, x* = min(x2, x4)
    with x2 and x4 the crossings with cuts 2 and 4, and never rises after
    it. Its lattice maximum is at floor(x* / step) or the point above,
    clipped to 0..s; rounding in x* changes the value found by no more than
    a slope times a few ulps.

    A zero slope c01 + c13 or c01 + c123 - c23 makes x2 or x4 inf or nan.
    Either slope can vanish only when c01 = 0, and then the rising line is
    flat, the minimum cut never grows with x, and x = 0 is the maximum. fmin
    skips a nan crossing, a crossing that is still inf or nan is sent to 0,
    and the endpoints 0 and s are evaluated for every pair anyway, so the
    maximum is never missed. That makes four t3 values per pair in all.
    """
    n = round(1.0 / step)
    i, j = _pair_lattice(n)
    rem = n - i - j  # t3 lattice index runs over 0..rem

    s = rem * step
    b1 = (i * caps.c012 + j * caps.c02) * step
    b2 = (i * caps.c02 + j * (caps.c02 + caps.c13)) * step + s * caps.c13
    b3 = i * caps.c01 * step + s * caps.c23
    b4 = j * caps.c13 * step + s * caps.c123
    b13 = np.minimum(b1, b3)
    fall4 = caps.c123 - caps.c23

    with np.errstate(divide="ignore", invalid="ignore"):
        x2 = (b2 - b13) / (caps.c01 + caps.c13)
        x4 = (b4 - b13) / (caps.c01 + fall4)
        k = np.floor(np.fmin(x2, x4) / step)
    k = np.nan_to_num(k, nan=0.0, posinf=0.0, neginf=0.0)
    k = np.clip(k, 0, rem).astype(np.int64)

    def cut_at(x):
        return np.minimum(b13 + caps.c01 * x, np.minimum(b2 - caps.c13 * x, b4 - fall4 * x))

    candidates = (0.0, s, k * step, np.minimum(k + 1, rem) * step)
    return float(max(cut_at(x).max() for x in candidates))


def exact_bound(caps: LinkCapacities) -> Fraction:
    """The LP optimum of the float instance, exactly.

    Every choice of four tight constraints among the eight (rate = cut i,
    t_j = 0), with the simplex row, is a 5x5 system in (rate, t1..t4); it is
    solved in Fraction arithmetic, which converts each float exactly, and the
    best rate over the exactly feasible vertices is the optimum. No
    tolerance anywhere; about 35 ms an instance.
    """
    c01, c02, c13, c23, c012, c123 = map(Fraction, caps.to_dict().values())
    cuts = (
        (c012, c02, c01, 0),
        (c02, c02 + c13, 0, c13),
        (c01, 0, c01 + c23, c23),
        (0, c13, c23, c123),
    )
    # the eight constraints as rows over (rate, t1..t4 | right-hand side)
    constraints = [[1, *(-m for m in cut), 0] for cut in cuts]
    constraints += [[int(k == j) for k in range(6)] for j in range(1, 5)]
    best = None
    for active in itertools.combinations(constraints, 4):
        x = _solve_exact([*active, [0, 1, 1, 1, 1, 1]])
        if x is None or min(x[1:]) < 0:
            continue
        rate, t = x[0], x[1:]
        if all(rate <= sum(m * v for m, v in zip(cut, t)) for cut in cuts):
            best = rate if best is None else max(best, rate)
    return best


def _solve_exact(rows) -> list[Fraction] | None:
    """Gauss-Jordan in Fractions on an augmented n x (n + 1) system; None if singular."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [u - f * v for u, v in zip(a[r], a[col])]
    return [a[r][n] / a[r][r] for r in range(n)]


# -- the exact kernel scan ----------------------------------------------------

# every square kernel (cuts C, states S), larger ones first
_KERNELS = [(c, s) for k in (4, 3, 2, 1) for c in itertools.combinations(range(4), k)
            for s in itertools.combinations(range(4), k)]


def _minor(b, i: int, j: int) -> list[list[int]]:
    """b without row i and column j."""
    return [row[:j] + row[j + 1:] for k, row in enumerate(b) if k != i]


def _det(b) -> int:
    """Determinant by Laplace expansion along the first row; exact on ints."""
    if len(b) == 1:
        return b[0][0]
    return sum((-1) ** j * b[0][j] * _det(_minor(b, 0, j)) for j in range(len(b)) if b[0][j])


def _adjugate(b) -> list[list[int]]:
    """adj(b), so that b @ adj(b) = det(b) I; adj of a 1x1 matrix is [[1]]."""
    n = len(b)
    if n == 1:
        return [[1]]
    return [[(-1) ** (i + j) * _det(_minor(b, j, i)) for j in range(n)] for i in range(n)]


def kernel_bound(caps: LinkCapacities) -> tuple[Fraction, tuple[tuple[int, ...], ...]]:
    """The LP optimum of the float instance exactly, with the kernel that certifies it.

    The cut matrix M (rows cuts, columns states) is a matrix game whose value
    is the bound. By Shapley and Snow (1950, Basic solutions of discrete
    games) some square kernel B = M[C, S] gives an optimal pair: schedule
    t_S = adj(B) 1 / 1'adj(B)1, cut weights y_C = 1'adj(B) / 1'adj(B)1 and
    value v = det(B) / 1'adj(B)1. t and y each sum to 1, so once t >= 0,
    every cut at t is >= v, y >= 0 and every state's weighted cut y'M is
    <= v, t proves the bound >= v and y proves it <= v. The scan returns the
    first kernel that passes those sign tests.

    The six capacities are floats, so all are integers over their largest
    denominator D, a power of two, and the tests run on the integer matrix
    D M. For a k x k kernel that scales the adjugate's sums by D^(k-1) and
    the determinant by D^k, so each test compares like with like, and
    v = det / (D 1'adj 1). Nothing is rounded. Value 0 comes from a 1 x 1
    kernel on a zero cut. Fails only if no kernel certifies, which the
    theorem rules out.
    """
    values = [Fraction(v) for v in caps.to_dict().values()]
    scale = max(v.denominator for v in values)
    c01, c02, c13, c23, c012, c123 = (int(v * scale) for v in values)
    rows = ((c012, c02, c01, 0), (c02, c02 + c13, 0, c13),
            (c01, 0, c01 + c23, c23), (0, c13, c23, c123))
    for cuts, states in _KERNELS:
        b = [[rows[i][j] for j in states] for i in cuts]
        adj = _adjugate(b)
        det = sum(p * row[0] for p, row in zip(b[0], adj))
        if sum(map(sum, adj)) < 0:  # negate both, so that total > 0: every ratio stays
            adj, det = [[-u for u in row] for row in adj], -det
        t = dict(zip(states, map(sum, adj)))  # the schedule, times total
        y = dict(zip(cuts, map(sum, zip(*adj))))  # the cut weights, times total
        total = sum(t.values())
        if total == 0 or min(t.values()) < 0 or min(y.values()) < 0:
            continue
        if all(sum(row[j] * u for j, u in t.items()) >= det for row in rows) and all(
                sum(rows[i][j] * w for i, w in y.items()) <= det for j in range(4)):
            return Fraction(det, total * scale), (cuts, states)
    raise AssertionError(f"no kernel certifies {caps}")


# -- the selection as it was written before its fixed costs were cut ---------

_STATE_ROWS = [tuple(float(i == j) for i in range(5)) for j in range(1, 5)] + [(0.0,) + (1.0,) * 4]


def reference_select(rows, systems) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """(t, cut values at t) of the best feasible vertex over systems (set + (8,)), or None.

    cutset_lp._select as it stood with one numpy call per step: the batched
    row norms, the finiteness mask and a[screen] on every call. The package's
    selection must give the same floats, bit for bit.
    """
    from diamond_relay.cutset_lp import _FEASIBILITY_SLACK, _TIE_ORDER, _TIE_REL_TOL, _cuts

    # each system over (rate, t1..t4): rate - cut_i = 0 or t_j = 0, sum t = 1
    a = np.array([(1.0, -p, -q, -r, -s) for p, q, r, s in rows] + _STATE_ROWS)[systems]
    # skip singular sets: |det| against the row norms' Hadamard bound, scale-free
    screen = np.abs(np.linalg.det(a)) > 1e-10 * np.sqrt((a * a).sum(axis=2)).prod(axis=1)
    x = np.linalg.solve(a[screen], [[0.0]] * 4 + [[1.0]])[:, :, 0]
    x = x[np.isfinite(x).all(axis=1)]
    low, feasible = -_FEASIBILITY_SLACK, []
    for row in x.tolist():
        rate, t1, t2, t3, t4 = row
        if t1 >= low and t2 >= low and t3 >= low and t4 >= low:
            if rate <= min(_cuts(rows, t1, t2, t3, t4)) + _FEASIBILITY_SLACK:
                feasible.append(row)
    if not feasible:
        return None
    best = max(row[0] for row in feasible)
    floor = best - _TIE_REL_TOL * max(1.0, abs(best))
    # round to 12 decimals so vertices that differ only by solve noise tie,
    # then prefer small t in _TIE_ORDER (a stable sort). np.round(x, 12) is
    # rint(x * 1e12) / 1e12 and sorts as rint(x * 1e12); round(x, 12) does not
    k1, k2, k3, k4 = (1 + j for j in _TIE_ORDER)  # a row is (rate, t1, t2, t3, t4)
    ranked = sorted(
        (row for row in feasible if row[0] >= floor),
        key=lambda r: (round(r[k1] * 1e12), round(r[k2] * 1e12), round(r[k3] * 1e12),
                       round(r[k4] * 1e12)),
    )
    first = None
    for row in ranked:
        # negative entries are roundoff of a feasible vertex; <= also maps -0.0 to 0
        t = [v if v > 0.0 else 0.0 for v in row[1:]]
        total = ((t[0] + t[1]) + t[2]) + t[3]
        t_final = tuple(v / total for v in t)
        values = _cuts(rows, *t_final)
        first = first or (t_final, values)
        if min(values) >= floor:  # else clamping lost the tie window: next
            return t_final, values
    return first


def selection_check(caps_list) -> int:
    """Selections where _select and reference_select differ, bit for bit.

    Each instance is compared on its located sets, when locate proves any,
    and on all 70; a difference is any float of (t, cut values) that is not
    the same, or a None from one side only.
    """
    from diamond_relay import cutset_lp

    def bits(chosen):
        return None if chosen is None else [[v.hex() for v in part] for part in chosen]

    mismatches = 0
    for caps in caps_list:
        rows = cutset_lp._cut_rows(caps)
        located = cutset_lp._locate(rows)
        for sets in ([located] if located else []) + [cutset_lp._ALL_SETS]:
            with warnings.catch_warnings():  # it warns on a subnormal or huge row
                warnings.simplefilter("ignore", RuntimeWarning)
                want = bits(reference_select(rows, [s + (8,) for s in sets]))
            mismatches += bits(cutset_lp._select(rows, sets)) != want
    return mismatches


# -- locate as it was written before its margin proof was made straight-line --


def reference_locate(rows) -> tuple[tuple[int, ...], ...] | None:
    """The active sets the selection can pick, or None if unproven.

    cutset_lp._locate as it stood with a comprehension per step of its margin
    proof. The package's locate must return the same sets, or None with it.

    Once t is optimal, dt[j] and drate bound how far a kept candidate (t >= -eps,
    rate <= cut + eps, near-best) is from t: too little to tighten a slack constraint.
    """
    from diamond_relay.cutset_lp import (
        _FEASIBILITY_SLACK, _KERNELS, _TIE_ORDER, _TIE_REL_TOL, _TRUSTED, _ZERO, _adjugate, _cuts,
    )

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
        outside = [j for j in range(4) if j not in states]
        z = {j: v - sum([w * rows[i][j] for w, i in zip(y, cuts)]) for j in outside}
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
        dt = [max(eps, reach / z[j]) if j in z else 0.0 for j in range(4)]
        drate = reach * len(y) + sum([z[j] * dt[j] for j in z])
        spill = [sum([abs(rows[i][j]) * dt[j] for j in z]) for i in cuts]  # M[C, not S] t
        shift = max([reach / w + e for w, e in zip(y, spill)])
        inv_norm = max(sum(map(abs, row)) for row in adj) / abs(total * v)  # |B^-1|
        for j in states:  # t_S = B^-1 (rate 1 - broken amounts - M[C, not S] t)
            dt[j] = inv_norm * (drate + shift)
    elif 4 < len(tight) <= 6 and min(rows[2][0], rows[0][1], rows[3][1], rows[3][2]) >= _TRUSTED:
        # degenerate: a candidate outranking t keeps the zero states heading the
        # tie-break order within eps of 0; the tight cuts pin the one or two left
        rest = _TIE_ORDER[next(n for n, j in enumerate(_TIE_ORDER) if 4 + j not in tight) :]
        slopes = [rows[i][rest[0]] - rows[i][rest[-1]] for i in tight if i < 4]
        pin = min(max(slopes), -min(slopes)) if len(rest) == 2 else math.inf
        if any(4 + j in tight for j in rest) or len(rest) > 2 or pin <= tol:
            return None
        dt = [eps] * 4  # with t[rest[0]] + t[rest[1]] fixed, opposite slopes pin it
        dt[rest[0]] = (window + eps * (1.0 + 4 * scale)) / pin
        dt[rest[-1]] = dt[rest[0]] + 4 * eps
        drate = window + eps + max(sum(map(abs, rows[i])) for i in tight if i < 4) * max(dt)
    else:
        return None
    moved = [drate + (abs(p) * dt[0] + abs(q) * dt[1] + abs(r) * dt[2] + abs(s) * dt[3])
             for p, q, r, s in rows]
    if any(g <= 2 * d for n, (g, d) in enumerate(zip(slack + t, moved + dt)) if n not in tight):
        return None
    return tuple(itertools.combinations(tight, 4))  # tight is sorted


def locate_check(caps_list) -> int:
    """Instances where _locate and reference_locate return different sets or None."""
    from diamond_relay import cutset_lp

    return sum(
        cutset_lp._locate(rows) != reference_locate(rows)
        for rows in map(cutset_lp._cut_rows, caps_list)
    )


# -- solve_bound against the selection over all 70 active sets ------------

DIFFERENTIAL_FAMILIES = ("unconditioned", "force_product_equal", "force_mirrored", "wide")


def differential_corpus(
    family: str, n: int, seed: int = 0, scale: float = 1.0
) -> list[LinkCapacities]:
    """n seeded instances of one family, every capacity multiplied by scale.

    The three conditioning modes are sweep draws (exponential gains, unit
    powers and noise). "wide" draws log-uniform links on 1e-3..30 with 15 %
    zeros, and makes one in eight product-equal, one mirrored and one with
    all four links equal.
    """
    from diamond_relay import Conditioning, SweepConfig, derive_capacities, induced_capacities
    from diamond_relay.experiments import sample_instance

    if scale != 1.0:
        return [
            LinkCapacities(**{k: scale * v for k, v in caps.to_dict().items()})
            for caps in differential_corpus(family, n, seed)
        ]
    if family != "wide":
        config = SweepConfig(n_samples=n, seed=seed, conditioning=Conditioning(family))
        return [derive_capacities(sample_instance(config, i)) for i in range(n)]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        links = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), 4))
        links[rng.random(4) < 0.15] = 0.0
        c01, c02, c13, c23 = links.tolist()
        kind = rng.integers(8)
        if kind == 0 and c13 > 0.0 and c01 * c02 / c13 <= 30.0:
            c23 = c01 * c02 / c13
        elif kind == 1:
            c13, c23 = c02, c01
        elif kind == 2:
            c02 = c13 = c23 = c01
        out.append(induced_capacities(c01, c02, c13, c23))
    return out


def differential_check(caps_list) -> tuple[int, dict[str, int]]:
    """Instances where solve_bound differs from its selection over all sets.

    The reference is solve_bound itself with the locate step switched off, so
    that all 70 active sets go through the selection; a difference is any
    field that is not the same float, bit for bit. Also counts the path each
    instance took: "one" or "several" located sets, "all" 70 because locate
    declined, or "fallback" to all 70 because a located set failed a check.
    """
    from diamond_relay import cutset_lp

    locate, select = cutset_lp._locate, cutset_lp._select
    calls: list[int] = []  # the number of sets in each selection of one solve

    def counting_select(rows, sets):
        calls.append(len(sets))
        return select(rows, sets)

    def solve(caps, locating: bool) -> str:
        cutset_lp._locate = locate if locating else (lambda rows: None)
        return repr(cutset_lp.solve_bound(caps))

    mismatches = 0
    paths = dict.fromkeys(("one", "several", "all", "fallback"), 0)
    cutset_lp._select = counting_select
    try:
        for caps in caps_list:
            calls.clear()
            got = solve(caps, locating=True)
            if calls[0] == len(cutset_lp._ALL_SETS):
                paths["all"] += 1
            else:
                paths["fallback" if len(calls) > 1 else "one" if calls[0] == 1 else "several"] += 1
            mismatches += got != solve(caps, locating=False)
    finally:
        cutset_lp._locate, cutset_lp._select = locate, select
    return mismatches, paths


# -- the LP's exact symmetries ----------------------------------------------

SWEEP_FAMILIES = DIFFERENTIAL_FAMILIES[:3]


def relay_swap(caps: LinkCapacities) -> LinkCapacities:
    """Relay 1 renamed relay 2: c01<->c02, c13<->c23; states t2<->t3, cuts 2<->3."""
    return LinkCapacities(caps.c02, caps.c01, caps.c23, caps.c13, caps.c012, caps.c123)


def reversal(caps: LinkCapacities) -> LinkCapacities:
    """Source and destination exchanged: c01<->c13, c02<->c23, c012<->c123;
    states t1<->t4, t2<->t3, cuts 1<->4."""
    return LinkCapacities(caps.c13, caps.c23, caps.c01, caps.c02, caps.c123, caps.c012)


def times_power_of_two(caps: LinkCapacities, k: int) -> LinkCapacities:
    """Every capacity times 2^k: exact while each stays a normal float."""
    return LinkCapacities(*(math.ldexp(v, k) for v in caps.to_dict().values()))


# maps under which the LP's value is exactly the same
SYMMETRIES = {
    "relay_swap": relay_swap,
    "reversal": reversal,
    "both": lambda caps: relay_swap(reversal(caps)),
}


if __name__ == "__main__":
    # python tests/oracles.py N [SCALE]: the differential, selection and locate
    # checks on N instances a family, every capacity multiplied by SCALE (default 1)
    import sys

    size = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    factor = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    for name in DIFFERENTIAL_FAMILIES:
        corpus = differential_corpus(name, size, scale=factor)
        bad, counts = differential_check(corpus)
        print(f"{name} x{factor:g}: {size} instances, {bad} mismatches, paths {counts}, "
              f"{selection_check(corpus)} selection mismatches, "
              f"{locate_check(corpus)} locate mismatches", flush=True)
