"""Scheduling bound solver: worked vertices, invariants, grid-search agreement."""

import json
import math
import random
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diamond_relay import (
    DomainError,
    InvariantError,
    LinkCapacities,
    SweepConfig,
    cut_values,
    derive_capacities,
    induced_capacities,
    solve_bound,
    sr_rate_min_form,
)
from diamond_relay import cutset_lp
from diamond_relay.experiments import sample_instance
from oracles import (
    DIFFERENTIAL_FAMILIES,
    SWEEP_FAMILIES,
    SYMMETRIES,
    differential_check,
    differential_corpus,
    exact_bound,
    grid_oracle_bound,
    grid_oracle_bound_naive,
    kernel_bound,
    locate_check,
    min_cut,
    selection_check,
)

CAPACITY_FIELDS = ("c01", "c02", "c13", "c23", "c012", "c123")

cap = st.floats(min_value=1e-3, max_value=30.0, allow_nan=False)
cap_or_zero = st.one_of(st.just(0.0), cap)


def caps_of(c01, c02, c13, c23):
    return induced_capacities(c01, c02, c13, c23)


class TestWorkedVertices:
    def test_balanced_2332(self):
        sol = solve_bound(caps_of(2.0, 3.0, 3.0, 2.0))
        assert sol.bound == pytest.approx(2.4, abs=1e-9)
        assert sol.t == pytest.approx((0.0, 0.4, 0.6, 0.0), abs=1e-9)
        assert sol.binding == {1, 2, 3, 4}
        for v in sol.cut_values:
            assert v == pytest.approx(2.4, abs=1e-9)

    def test_dead_source_side(self):
        sol = solve_bound(caps_of(0.0, 0.0, 1.0, 1.0))
        assert sol.bound == 0.0

    def test_all_links_equal(self):
        sol = solve_bound(caps_of(1.5, 1.5, 1.5, 1.5))
        assert sol.bound == pytest.approx(1.5, abs=1e-9)
        assert sol.t == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=1e-9)

    def test_single_relay_path(self):
        # relay 2 is useless, so the schedule time-shares relay 1's two hops
        sol = solve_bound(caps_of(2.0, 0.0, 2.0, 0.0))
        assert sol.bound == pytest.approx(1.0, abs=1e-9)


class TestSolutionDict:
    def test_to_dict_is_plain_json_in_field_order(self):
        sol = solve_bound(induced_capacities(0.0, 1.5, 2.5, 1.25, c012=2.0))
        d = sol.to_dict()
        assert list(d) == ["t", "bound", "cut_values", "binding"]
        assert d["t"] == list(sol.t)
        assert d["cut_values"] == list(sol.cut_values)
        assert d["bound"] == sol.bound
        assert d["binding"] == [1, 2, 3]
        assert d["binding"] == sorted(sol.binding)
        assert json.loads(json.dumps(d)) == d


class TestCutValues:
    def test_rows_at_a_vertex(self):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        values = cut_values(caps, (1.0, 0.0, 0.0, 0.0))
        assert values[0] == pytest.approx(caps.c012, abs=1e-12)
        assert values[1] == pytest.approx(caps.c02, abs=1e-12)
        assert values[2] == pytest.approx(caps.c01, abs=1e-12)
        assert values[3] == 0.0

    def test_relays_transmitting_state(self):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        values = cut_values(caps, (0.0, 0.0, 0.0, 1.0))
        assert values[3] == pytest.approx(caps.c123, abs=1e-12)
        assert values[0] == 0.0

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            cut_values(caps_of(1.0, 1.0, 1.0, 1.0), (-0.1, 0.4, 0.4, 0.3))

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(DomainError):
            cut_values(caps_of(1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 0.5, 0.5))

    def test_rejects_wrong_arity(self):
        with pytest.raises(DomainError):
            cut_values(caps_of(1.0, 1.0, 1.0, 1.0), (0.5, 0.5))

    def test_rejects_non_finite_weight(self):
        with pytest.raises(DomainError, match="finite"):
            cut_values(caps_of(1.0, 1.0, 1.0, 1.0), (float("nan"), 0.5, 0.5, 0.0))

    @pytest.mark.parametrize(
        "t",
        [
            "1000",
            ("0.25",) * 4,
            b"abcd",
            (True, False, False, False),
            (Decimal("0.25"),) * 4,
            b"\x01\x00\x00\x00",  # iterates as the ints 1, 0, 0, 0
            0.5,  # not iterable at all
        ],
        ids=["str", "str_entries", "bytes", "bools", "decimals", "bytes_of_a_vertex", "float"],
    )
    def test_rejects_what_is_not_int_or_float(self, t):
        # every number the package takes is an int or a float, t's entries too
        with pytest.raises(DomainError, match=r"^t(\[\d\])? must"):
            cut_values(caps_of(1.0, 1.0, 1.0, 1.0), t)

    def test_accepts_tiny_negative_roundoff(self):
        values = cut_values(caps_of(1.0, 1.0, 1.0, 1.0), (-1e-12, 0.5, 0.5, 1e-12))
        assert len(values) == 4


class TestSolutionInvariants:
    @given(c01=cap_or_zero, c02=cap_or_zero, c13=cap_or_zero, c23=cap_or_zero)
    def test_weights_form_distribution_and_bound_is_min_cut(self, c01, c02, c13, c23):
        sol = solve_bound(caps_of(c01, c02, c13, c23))
        assert all(t >= 0.0 for t in sol.t)
        assert sum(sol.t) == pytest.approx(1.0, abs=1e-12)
        assert sol.bound == min(sol.cut_values)
        assert sol.binding
        assert all(i in (1, 2, 3, 4) for i in sol.binding)

    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_bound_dominates_alternating_schedule(self, c01, c02, c13, c23):
        caps = caps_of(c01, c02, c13, c23)
        sol = solve_bound(caps)
        assert sol.bound >= sr_rate_min_form(caps).r_sr - 1e-9

    @given(c01=cap, c02=cap, c13=cap, c23=cap, bump=cap)
    def test_monotone_in_capacities(self, c01, c02, c13, c23, bump):
        base = solve_bound(caps_of(c01, c02, c13, c23)).bound
        grown = solve_bound(caps_of(c01 + bump, c02, c13, c23 + bump)).bound
        assert grown >= base - 1e-9 * max(1.0, base)

    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_swap_symmetry(self, c01, c02, c13, c23):
        a = solve_bound(caps_of(c01, c02, c13, c23)).bound
        b = solve_bound(caps_of(c02, c01, c23, c13)).bound
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_deterministic(self):
        caps = caps_of(0.7, 2.2, 1.9, 0.4)
        assert solve_bound(caps) == solve_bound(caps)

    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_no_schedule_beats_the_bound(self, c01, c02, c13, c23):
        """Spot-check optimality: a handful of feasible schedules, none above."""
        caps = caps_of(c01, c02, c13, c23)
        sol = solve_bound(caps)
        for t in [
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.25, 0.25, 0.25, 0.25),
            (0.0, 0.5, 0.5, 0.0),
            (0.1, 0.4, 0.4, 0.1),
        ]:
            assert min_cut(caps, *t) <= sol.bound + 1e-9 * max(1.0, sol.bound)


class TestAgainstGridOracle:
    @settings(max_examples=25, deadline=None)
    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_coarse_grid_never_exceeds_bound(self, c01, c02, c13, c23):
        caps = caps_of(c01, c02, c13, c23)
        sol = solve_bound(caps)
        assert grid_oracle_bound(caps, 0.02) <= sol.bound + 1e-9

    def test_fine_grid_agrees_on_worked_instance(self):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        assert grid_oracle_bound(caps, 1e-3) == pytest.approx(2.4, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(c01=cap_or_zero, c02=cap_or_zero, c13=cap_or_zero, c23=cap_or_zero)
    # zero crossing slopes: c01 + c13 = 0, and c01 + c123 - c23 = 0 via c13 = 0
    @example(c01=0.0, c02=1.0, c13=0.0, c23=2.0)
    # c01 = 0 alone: flat rising line, finite crossings
    @example(c01=0.0, c02=1.5, c13=0.7, c23=2.5)
    # equal capacities: the crossings land exactly on lattice points
    @example(c01=1.0, c02=1.0, c13=1.0, c23=1.0)
    def test_fast_grid_matches_naive_grid(self, c01, c02, c13, c23):
        # the restructured oracle must literally reproduce the lattice search
        caps = caps_of(c01, c02, c13, c23)
        fast = grid_oracle_bound(caps, 0.05)
        naive = grid_oracle_bound_naive(caps, 0.05)
        assert fast == pytest.approx(naive, abs=1e-12)


class TestKernelTable:
    """The kernels _locate scans: the order sets its speed, never its answer."""

    def test_frequent_winners_lead_the_scan(self):
        assert cutset_lp._KERNELS[: len(cutset_lp._FREQUENT)] == list(cutset_lp._FREQUENT)

    def test_every_square_kernel_of_size_two_to_four_once(self):
        kernels = cutset_lp._KERNELS
        assert len(kernels) == len(set(kernels)) == 53
        assert all(len(cuts) == len(states) >= 2 for cuts, states in kernels)

    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_every_pure_state_leaves_a_cut_at_zero(self, family):
        # so a 1x1 kernel's value is at most locate's zero and it never certifies
        for caps in differential_corpus(family, 5):
            for j in range(4):
                assert min(cut_values(caps, tuple(float(i == j) for i in range(4)))) == 0.0

    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_frequent_kernels_are_the_winners(self, family, monkeypatch):
        # a winner left out of _FREQUENT still wins, only after the rest of the scan
        rows = [cutset_lp._cut_rows(caps) for caps in differential_corpus(family, 300)]
        located = [cutset_lp._locate(r) for r in rows]
        assert sum(sets is not None for sets in located) >= 100
        for sets in located:
            assert sets is None or all(s in cutset_lp._ALL_SETS for s in sets), sets
        monkeypatch.setattr(cutset_lp, "_KERNELS", list(cutset_lp._FREQUENT))
        assert [cutset_lp._locate(r) for r in rows] == located


# one input for each path solve_bound can take, with the path it takes
PINNED_PATHS = pytest.mark.parametrize(
    "caps, path",
    [
        (derive_capacities(sample_instance(SweepConfig(n_samples=1, seed=0), 0)), "one"),
        (caps_of(2.0, 3.0, 3.0, 2.0), "several"),
        (caps_of(0.0, 2.0, 1.0, 2.0), "all"),
        # a degenerate optimum at low scale: a far vertex that breaks cut 3
        # by 1.3e-10, inside the absolute feasibility slack, outbids it
        (
            LinkCapacities(
                c01=0.00183104963683072,
                c02=0.044420118488477725,
                c13=13.14819083628531,
                c23=6.186055772923658e-06,
                c012=0.046195683924911295,
                c123=13.148253540407394,
            ),
            "all",
        ),
        # the same with c23 = 2.1e-6 next to c13 = 14; only the least-link
        # rule of the degenerate case declines it
        (
            caps_of(
                0.002137712111394603, 0.013887664254337278,
                14.007166743974881, 2.119474167625568e-06,
            ),
            "all",
        ),
        # a non-degenerate optimum whose margins are too thin for the slack
        (
            LinkCapacities(
                c01=0.01972466563615255,
                c02=1.208901766861331e-07,
                c13=0.0003111329555682936,
                c23=0.9523718549965116,
                c012=0.019724784884754612,
                c123=0.9735521776470308,
            ),
            "all",
        ),
        # at this scale the determinant screen drops the located set
        (
            LinkCapacities(
                c01=1.7396568611968434e-05,
                c02=5.891863795151713e-06,
                c13=2.1429232392145314e-06,
                c23=4.371521919141887e-06,
                c012=1.739705666107379e-05,
                c123=5.340700607703695e-06,
            ),
            "fallback",
        ),
        # cut entries in the thousands: the located vertex's rate equals its
        # least cut, 1e-9 inside the feasibility slack, and the located sets answer
        (LinkCapacities(2000.0, 3000.0, 3000.0, 2000.0, 3500.0, 3500.0), "several"),
    ],
    ids=[
        "rayleigh",
        "caps_2332",
        "zero_link",
        "low_scale_degenerate",
        "weak_link_degenerate",
        "thin_margin",
        "screened_out",
        "cut_entries_in_thousands",
    ],
)


class TestLocatedSelection:
    """solve_bound solves only the active sets it proves can win; it must
    answer exactly as its selection over all 70 sets does."""

    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_matches_the_selection_over_all_sets(self, family):
        mismatches, paths = differential_check(differential_corpus(family, 2000))
        assert mismatches == 0, paths
        assert paths["one"] + paths["several"] >= 800, paths

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_located_sets_answer_at_large_scale(self, family, scale):
        # each candidate is judged on its own, so a located selection declines
        # only when the determinant screen drops its set
        mismatches, paths = differential_check(differential_corpus(family, 1500, scale=scale))
        assert mismatches == 0, paths
        assert paths["fallback"] <= 15, paths  # 1 %

    @PINNED_PATHS
    def test_each_path_on_a_pinned_input(self, caps, path):
        mismatches, paths = differential_check([caps])
        assert mismatches == 0
        assert paths[path] == 1, paths


class TestSelectionParity:
    """_select against its earlier form, kept in oracles.reference_select:
    the same (t, cut values), bit for bit, or None from both, on the located
    sets and on all 70."""

    @pytest.mark.parametrize("scale", [2.0**-20, 1e-3, 1.0, 1e3, 1e6, 2.0**20])
    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_corpus_at_each_scale(self, family, scale):
        assert selection_check(differential_corpus(family, 50, seed=11, scale=scale)) == 0

    @PINNED_PATHS
    def test_pinned_input(self, caps, path):
        assert selection_check([caps]) == 0


class TestLocateParity:
    """_locate against its earlier form, kept in oracles.reference_locate: the
    same active sets, or None from both. A None falls back to all 70 sets and
    cannot move a bound, so this holds the proof itself, not the bytes."""

    @pytest.mark.parametrize("scale", [2.0**-20, 1e-3, 1.0, 1e3, 2.0**20])
    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_corpus_at_each_scale(self, family, scale):
        assert locate_check(differential_corpus(family, 50, seed=11, scale=scale)) == 0

    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_near_the_proof_thresholds(self, family, monkeypatch):
        # a wider feasibility slack widens every margin, so across these slacks the
        # proof declines on some instances and not on others: both forms must agree
        corpus = differential_corpus(family, 50, seed=11)
        for k in range(21):
            monkeypatch.setattr(cutset_lp, "_FEASIBILITY_SLACK", 10.0 ** (-6 + k / 4))
            assert locate_check(corpus) == 0, cutset_lp._FEASIBILITY_SLACK

    @PINNED_PATHS
    def test_pinned_input(self, caps, path):
        assert locate_check([caps]) == 0


class TestNumpyWarnings:
    """LAPACK's det warns on a subnormal or overflowing entry; the selection
    reads the inf or 0 it gives and lets no warning reach stderr."""

    def test_subnormal_link(self):
        caps = induced_capacities(5e-324, 1.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = repr(solve_bound(caps))
        assert got == (
            "CutSetSolution(t=(0.0, 0.5, 0.5, 0.0), bound=0.5, "
            "cut_values=(0.5, 1.0, 0.5, 1.0), binding=frozenset({1, 3}))"
        )

    def test_overflowing_links_raise_only_the_known_error(self):
        # no vertex survives the absolute feasibility slack at 1e300 (ROADMAP direction 1)
        caps = LinkCapacities(*(1e300,) * 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match="no feasible vertex"):
                solve_bound(caps)


class TestAgainstExactBound:
    """solve_bound against the rational LP optimum of the same float instance."""

    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_relative_error_at_power_of_two_scales(self, family):
        # scaling by 2^k is exact, so 2^k times the optimum is the reference;
        # wide instances may take a tied vertex up to the 1e-12 tie window down
        limit = 2e-12 if family == "wide" else 1e-13
        exact = [exact_bound(caps) for caps in differential_corpus(family, 20)]
        for k in (0, 10, 20):
            for caps, want in zip(differential_corpus(family, 20, scale=2.0**k), exact):
                error = abs(Fraction(solve_bound(caps).bound) - want * 2**k)
                assert error <= limit * want * 2**k, (k, caps, float(error))

    @pytest.mark.parametrize(
        "caps, optimum",
        [
            (
                LinkCapacities(
                    c01=46839.76313329541,
                    c02=10125854.92228726,
                    c13=259867.99065434447,
                    c23=13820271.288194496,
                    c012=10125897.530309409,
                    c123=13830909.5394287,
                ),
                5872238.635120059,
            ),
            (
                LinkCapacities(
                    c01=23193108.900603518,
                    c02=9109.936608134463,
                    c13=19155355.79835231,
                    c23=2438243.317703495,
                    c012=23193108.90155646,
                    c123=19163283.386368774,
                ),
                10498097.435452871,
            ),
        ],
        ids=["wide_1e6_a", "wide_1e6_b"],
    )
    def test_optimum_kept_at_a_one_ulp_slack(self, caps, optimum):
        # with cut entries near 1e7 the 1e-9 feasibility slack is one ulp, and
        # the optimal vertex stays only while its cuts round no worse than
        # that; cuts taken through a batched matmul were 2 ulps out and gave
        # bounds 0.14 % and 0.02 % low
        assert float(exact_bound(caps)) == optimum
        assert solve_bound(caps).bound == pytest.approx(optimum, rel=1e-15)

    @pytest.mark.xfail(
        strict=True,
        reason="the determinant screen drops the optimum at large scale (ROADMAP direction 1)",
    )
    @pytest.mark.parametrize(
        "caps",
        [
            LinkCapacities(
                c01=161891.0694134778,
                c02=27996826.423713367,
                c13=6912.885452085319,
                c23=21485891.29924031,
                c012=27996826.425280884,
                c123=21486059.99221337,
            ),
            LinkCapacities(
                c01=12921241.608560354,
                c02=2055.0551532636637,
                c13=5740415.76741603,
                c23=53707.010644938026,
                c012=12921242.01000834,
                c123=5824545.880447553,
            ),
        ],
        ids=["all_sets", "located_set"],
    )
    def test_screened_out_optimum_at_large_scale(self, caps):
        # the rate column of each 5x5 system stays 1 while the cut entries
        # grow, so |det| against the Hadamard bound shrinks like 1/scale
        assert solve_bound(caps).bound == pytest.approx(float(exact_bound(caps)), rel=2e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="the absolute feasibility slack is below one ulp of the cuts, so the "
        "optimum is rejected (large scale) or the 70-set tie walk clamps (zero link); "
        "ROADMAP direction 1",
    )
    @pytest.mark.parametrize(
        "caps, wrong, optimum",
        [
            (
                LinkCapacities(
                    c01=22556343.26213884,
                    c02=23075079.005895313,
                    c13=11691958.539599828,
                    c23=35850430.52282113,
                    c012=34350366.3401829,
                    c123=50101637.96203329,
                ),
                19773488.542532824,
                21746640.17711063,
            ),
            (
                LinkCapacities(
                    c01=2625641354.90309,
                    c02=2138577089.5756748,
                    c13=2202485577.55431,
                    c23=2090977062.4717438,
                    c012=3301138382.567652,
                    c123=3972802401.4332614,
                ),
                0.0,
                2246339507.4847584,
            ),
            (
                LinkCapacities(
                    c01=3.329375257284348,
                    c02=29.651151850034896,
                    c13=0.0,
                    c23=0.5522001123119036,
                    c012=29.65115186552382,
                    c123=0.5522001123119037,
                ),
                0.5421043794669523,
                0.542104379744955,
            ),
        ],
        ids=["scale_2_24", "links_near_2e9", "zero_link_wide"],
    )
    def test_found_wrong_bound(self, caps, wrong, optimum):
        # wrong is the bound given today; an XPASS means a change moved it
        assert float(exact_bound(caps)) == optimum
        bound = solve_bound(caps).bound
        assert bound == pytest.approx(optimum, rel=2e-12), (bound, wrong)

    @pytest.mark.parametrize(
        "scale",
        [
            1e9,
            pytest.param(
                1e10,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=InvariantError,
                    reason="the absolute feasibility slack is below one ulp of the cuts "
                    "and no vertex survives (ROADMAP direction 1)",
                ),
            ),
        ],
    )
    def test_worked_instance_at_large_scale(self, scale):
        # the paper's instance, whose bound is 2.4 at scale 1; at 1e10 each
        # vertex's rate rounds above its least cut by more than the 1e-9 slack
        caps = LinkCapacities(*(scale * c for c in (2.0, 3.0, 3.0, 2.0, 3.5, 3.5)))
        assert solve_bound(caps).bound == pytest.approx(2.4 * scale, rel=1e-12)


class TestKernelBound:
    """The exact kernel scan of tests/oracles.py against the exact vertex
    enumeration, on seeded corpora from far below to far above scale 1."""

    @pytest.mark.parametrize("scale", [2.0**-1000, 1e-9, 1.0, 2.0**1000],
                             ids=["2^-1000", "1e-9", "1", "2^1000"])
    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_equals_exact_bound(self, family, scale):
        for caps in differential_corpus(family, 5, scale=scale):
            assert kernel_bound(caps)[0] == exact_bound(caps), caps

    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_is_homogeneous_under_power_of_two_scaling(self, family):
        corpus = differential_corpus(family, 5)
        for k in (-1000, -30, 30, 1000):
            for caps, scaled in zip(corpus, differential_corpus(family, 5, scale=2.0**k)):
                # every capacity scaled exactly: none became subnormal
                assert all(Fraction(getattr(scaled, name)) == Fraction(getattr(caps, name)) * 2**k
                           for name in CAPACITY_FIELDS)
                assert kernel_bound(scaled)[0] == kernel_bound(caps)[0] * Fraction(2)**k

    @pytest.mark.parametrize(
        "caps, value, kernel",
        [
            # the paper's instance: all four cuts tie on the full kernel
            (induced_capacities(2.0, 3.0, 3.0, 2.0), Fraction(12, 5),
             ((0, 1, 2, 3), (0, 1, 2, 3))),
            # the earlier kernel ((0, 1, 3), (0, 2, 3)) passes the t, cut and y
            # tests at v = 4/5, but its y puts state t2's weighted cut above v
            (LinkCapacities(1.0, 2.0, 1.0, 1.0, 2.0, 1.0), Fraction(1),
             ((0, 1, 3), (1, 2, 3))),
        ],
        ids=["paper_2332", "state_slack_decides"],
    )
    def test_certifying_kernel(self, caps, value, kernel):
        assert exact_bound(caps) == value
        assert kernel_bound(caps) == (value, kernel)

    def test_zero_value_comes_from_a_zero_cut(self):
        assert kernel_bound(induced_capacities(0.0, 0.0, 0.0, 0.0)) == (0, ((0,), (0,)))
        assert kernel_bound(induced_capacities(0.0, 0.0, 1.0, 2.0))[0] == 0


class TestExactSymmetries:
    """The LP's value is exactly invariant under relay swap and network
    reversal, and scaling every capacity by 2^-30 is exact in floats, so a
    correctly rounded solver passes each check on every instance of a
    seeded corpus. solve_bound rounds each vertex its own way and does not."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="solve_bound's rounding depends on the order of the cuts "
        "(ROADMAP direction 1)",
    )
    @pytest.mark.parametrize("name", SYMMETRIES)
    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_bound_is_bit_identical_under_symmetry(self, family, name):
        symmetry = SYMMETRIES[name]
        moved = [
            i for i, caps in enumerate(differential_corpus(family, 200))
            if solve_bound(symmetry(caps)).bound != solve_bound(caps).bound
        ]
        assert moved == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="solve_bound's rounding depends on the scale of the cuts "
        "(ROADMAP direction 1)",
    )
    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_bound_commutes_with_power_of_two_scaling(self, family):
        scale = 2.0**-30
        pairs = zip(differential_corpus(family, 200),
                    differential_corpus(family, 200, scale=scale))
        moved = [
            i for i, (caps, scaled) in enumerate(pairs)
            if solve_bound(scaled).bound != scale * solve_bound(caps).bound
        ]
        assert moved == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="solve_bound's slacks are absolute, so its answer depends on the scale "
        "of the cuts (ROADMAP direction 1)",
    )
    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_bound_commutes_with_wide_power_of_two_scaling(self, family):
        # one seeded k in [-1000, 1000] an instance, drawn where every
        # capacity c * 2^k stays a normal double (zeros stay zero)
        rng = random.Random(0)
        moved = []
        for i, caps in enumerate(differential_corpus(family, 200)):
            values = [getattr(caps, name) for name in CAPACITY_FIELDS]
            exponents = [math.frexp(c)[1] for c in values if c > 0.0]
            low, high = min(exponents, default=0), max(exponents, default=0)
            k = rng.randint(max(-1000, -1021 - low), min(1000, 1024 - high))
            scaled = LinkCapacities(*(math.ldexp(c, k) for c in values))
            want = math.ldexp(solve_bound(caps).bound, k)
            try:
                bound = solve_bound(scaled).bound
            except InvariantError as exc:
                bound = exc
            if bound != want:
                moved.append((i, k))
        assert moved == []
