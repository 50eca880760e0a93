"""Alternating-schedule rate: worked values, forms agree, oracle agreement."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diamond_relay import (
    DegenerateDenominatorError,
    LinkCapacities,
    Winner,
    induced_capacities,
    sr_rate_closed_form,
    sr_rate_min_form,
    time_fractions,
)
from oracles import (
    SWEEP_FAMILIES,
    best_phase_split_rate,
    differential_corpus,
    relay_swap,
    reversal,
    times_power_of_two,
)

cap = st.floats(min_value=1e-3, max_value=30.0, allow_nan=False)
cap_or_zero = st.one_of(st.just(0.0), cap)
# every capacity and rate of an instance of cap links stays a normal float times 2^k
wide_k = st.integers(min_value=-1000, max_value=1000)


def caps_of(c01, c02, c13, c23):
    return induced_capacities(c01, c02, c13, c23)


class TestWorkedValues:
    def test_balanced_2332(self):
        res = sr_rate_min_form(caps_of(2.0, 3.0, 3.0, 2.0))
        assert res.r1 == pytest.approx(2.4, abs=1e-12)
        assert res.r2 == pytest.approx(2.4, abs=1e-12)
        assert res.r_sr == pytest.approx(2.4, abs=1e-12)
        assert res.winner is Winner.TIE
        assert res.lambda1 == pytest.approx(0.6, abs=1e-12)
        assert res.lambda2 == pytest.approx(0.6, abs=1e-12)
        assert not res.degenerate

    def test_asymmetric_1242(self):
        res = sr_rate_min_form(caps_of(1.0, 2.0, 4.0, 2.0))
        assert res.r1 == pytest.approx(1.2, abs=1e-12)
        assert res.r2 == pytest.approx(1.5, abs=1e-12)
        assert res.r_sr == pytest.approx(1.5, abs=1e-12)
        assert res.winner is Winner.BRANCH2

    @pytest.mark.parametrize("k", [-60, -40, -20, 0, 20])
    def test_winner_of_1242_at_every_scale(self, k):
        # r2 = 1.25 r1 at every scale, so no scale makes the branches tie
        res = sr_rate_min_form(times_power_of_two(LinkCapacities(1, 2, 4, 2, 3, 6), k))
        assert res.r2 == pytest.approx(1.25 * res.r1, rel=1e-12)
        assert res.winner is Winner.BRANCH2

    def test_mirror_of_1242_flips_winner(self):
        res = sr_rate_min_form(caps_of(2.0, 1.0, 2.0, 4.0))
        assert res.r_sr == pytest.approx(1.5, abs=1e-12)
        assert res.winner is Winner.BRANCH1

    def test_all_zero(self):
        res = sr_rate_min_form(caps_of(0.0, 0.0, 0.0, 0.0))
        assert res.r_sr == 0.0
        assert res.degenerate


class TestTimeFractions:
    def test_balanced_split(self):
        lam1, lam2 = time_fractions(caps_of(2.0, 3.0, 3.0, 2.0))
        assert lam1 == pytest.approx(0.6, abs=1e-15)
        assert lam2 == pytest.approx(0.6, abs=1e-15)

    def test_zero_denominator_reports_zero(self):
        lam1, lam2 = time_fractions(caps_of(0.0, 1.0, 0.0, 1.0))
        assert lam1 == 0.0
        assert lam2 > 0.0

    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_fractions_in_unit_interval(self, c01, c02, c13, c23):
        lam1, lam2 = time_fractions(caps_of(c01, c02, c13, c23))
        assert 0.0 <= lam1 <= 1.0
        assert 0.0 <= lam2 <= 1.0


class TestFormsAgree:
    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_closed_and_min_form_match(self, c01, c02, c13, c23):
        caps = caps_of(c01, c02, c13, c23)
        r1c, r2c = sr_rate_closed_form(caps)
        res = sr_rate_min_form(caps)
        assert r1c == pytest.approx(res.r1, rel=1e-12, abs=1e-12)
        assert r2c == pytest.approx(res.r2, rel=1e-12, abs=1e-12)

    @given(c01=cap, c02=cap, c13=cap, c23=cap, k=wide_k)
    def test_closed_form_is_the_exact_form_rounded_once(self, c01, c02, c13, c23, k):
        caps = times_power_of_two(caps_of(c01, c02, c13, c23), k)
        a, b, c, d = map(Fraction, (caps.c01, caps.c02, caps.c13, caps.c23))
        cross = min(c * d, a * b)
        exact = ((a * c + cross) / (c + a), (b * d + cross) / (d + b))
        assert sr_rate_closed_form(caps) == tuple(map(float, exact))

    @given(c01=cap, c02=cap, c13=cap, c23=cap, k=wide_k)
    def test_closed_form_is_homogeneous_under_power_of_two_scaling(self, c01, c02, c13, c23, k):
        caps = caps_of(c01, c02, c13, c23)
        r1, r2 = sr_rate_closed_form(caps)
        scaled = sr_rate_closed_form(times_power_of_two(caps, k))
        assert scaled == (math.ldexp(r1, k), math.ldexp(r2, k))

    def test_closed_form_rejects_degenerate_branch(self):
        with pytest.raises(DegenerateDenominatorError, match=r"c13 \+ c01"):
            sr_rate_closed_form(caps_of(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(DegenerateDenominatorError, match=r"c23 \+ c02"):
            sr_rate_closed_form(caps_of(1.0, 0.0, 1.0, 0.0))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="time_fractions' float sum c13 + c01 overflows at 1e308, so lambda1 and "
        "lambda2 are 0 and r_sr is 0.0 (ROADMAP direction 1's rate step)",
    )
    def test_min_form_rate_at_the_top_of_the_double_range(self):
        caps = LinkCapacities(*(1e308,) * 6)
        assert sr_rate_closed_form(caps) == (1e308, 1e308)
        assert sr_rate_min_form(caps).r_sr == 1e308

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="sr_rate_min_form's r_sr goes through float fractions and is not the rate "
        "rounded once (ROADMAP direction 1's rate step)",
    )
    def test_min_form_rate_is_the_closed_form_rate(self):
        # the min form reads 0.8999999999999999 here
        caps = caps_of(1.0, 1.0, 1.5, 0.5)
        assert sr_rate_min_form(caps).r_sr == max(sr_rate_closed_form(caps))
        misses = {
            family: sum(sr_rate_min_form(c).r_sr != max(sr_rate_closed_form(c))
                        for c in differential_corpus(family, 200))
            for family in SWEEP_FAMILIES
        }
        assert misses == dict.fromkeys(SWEEP_FAMILIES, 0)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="r_sr is not correctly rounded, so its last bit follows the link order "
        "(ROADMAP direction 1's rate step)",
    )
    def test_min_form_rate_is_invariant_under_symmetry(self):
        # both maps give 0.9000000000000001 here, against 0.8999999999999999
        caps = caps_of(1.0, 1.0, 1.5, 0.5)
        r_sr = sr_rate_min_form(caps).r_sr
        assert (sr_rate_min_form(relay_swap(caps)).r_sr,
                sr_rate_min_form(reversal(caps)).r_sr) == (r_sr, r_sr)
        moved = {
            (family, symmetry.__name__): sum(
                sr_rate_min_form(symmetry(c)).r_sr != sr_rate_min_form(c).r_sr
                for c in differential_corpus(family, 200))
            for family in SWEEP_FAMILIES for symmetry in (relay_swap, reversal)
        }
        assert set(moved.values()) == {0}, moved

    def test_min_form_handles_degenerate_branch(self):
        # branch 1 has no working links at all; branch 2 still relays
        res = sr_rate_min_form(caps_of(0.0, 2.0, 0.0, 2.0))
        assert res.degenerate
        assert res.r1 == 0.0
        assert res.r2 == pytest.approx(1.0, abs=1e-12)


class TestAgainstSplitOracle:
    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_matches_brute_force_over_splits(self, c01, c02, c13, c23):
        caps = caps_of(c01, c02, c13, c23)
        oracle = best_phase_split_rate(caps, n_grid=2001)
        assert sr_rate_min_form(caps).r_sr == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    @given(c01=cap_or_zero, c02=cap_or_zero, c13=cap_or_zero, c23=cap_or_zero)
    def test_matches_oracle_with_dead_links(self, c01, c02, c13, c23):
        caps = caps_of(c01, c02, c13, c23)
        oracle = best_phase_split_rate(caps, n_grid=2001)
        assert sr_rate_min_form(caps).r_sr == pytest.approx(oracle, rel=1e-9, abs=1e-9)


class TestStructure:
    @given(c01=cap, c02=cap, c13=cap, c23=cap, k=wide_k)
    def test_relabeling_relays_swaps_branches_exactly(self, c01, c02, c13, c23, k):
        """Renaming relay 1 to relay 2 swaps the closed-form rates bitwise, at
        every scale: every operand pair just commutes."""
        caps = times_power_of_two(caps_of(c01, c02, c13, c23), k)
        r1, r2 = sr_rate_closed_form(caps)
        assert sr_rate_closed_form(relay_swap(caps)) == (r2, r1)

    @given(c01=cap, c02=cap, c13=cap, c23=cap, k=st.integers(min_value=-200, max_value=200))
    def test_winner_unchanged_under_power_of_two_scaling(self, c01, c02, c13, c23, k):
        # every float step of the min form stays normal here and scales exactly
        # by 2^k, so r1 and r2 do, and the relative tie rule must keep its verdict
        caps = caps_of(c01, c02, c13, c23)
        res, scaled = sr_rate_min_form(caps), sr_rate_min_form(times_power_of_two(caps, k))
        assert (scaled.r1, scaled.r2) == (math.ldexp(res.r1, k), math.ldexp(res.r2, k))
        assert scaled.winner is res.winner

    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_relabeling_relays_swaps_branches_min_form(self, c01, c02, c13, c23):
        # only approximate here: the split fractions lam and 1 - lam are
        # computed by different divisions, so the swap is not bitwise
        res = sr_rate_min_form(caps_of(c01, c02, c13, c23))
        swapped = sr_rate_min_form(caps_of(c02, c01, c23, c13))
        assert res.r1 == pytest.approx(swapped.r2, rel=1e-12)
        assert res.r2 == pytest.approx(swapped.r1, rel=1e-12)
        assert res.r_sr == pytest.approx(swapped.r_sr, rel=1e-12)

    @given(c01=cap, c02=cap, c13=cap, c23=cap, bump=cap)
    def test_monotone_in_each_capacity(self, c01, c02, c13, c23, bump):
        base = sr_rate_min_form(caps_of(c01, c02, c13, c23)).r_sr
        for grown in (
            caps_of(c01 + bump, c02, c13, c23),
            caps_of(c01, c02 + bump, c13, c23),
            caps_of(c01, c02, c13 + bump, c23),
            caps_of(c01, c02, c13, c23 + bump),
        ):
            assert sr_rate_min_form(grown).r_sr >= base - 1e-12 * max(1.0, base)

    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_rate_bounded_by_best_links(self, c01, c02, c13, c23):
        r = sr_rate_min_form(caps_of(c01, c02, c13, c23)).r_sr
        assert r <= max(c01, c23) + max(c02, c13) + 1e-12

    def test_result_dict_keys(self):
        d = sr_rate_min_form(caps_of(2.0, 3.0, 3.0, 2.0)).to_dict()
        assert d["winner"] == "tie"
        assert d["degenerate"] is False
        assert set(d) == {"lambda1", "lambda2", "r1", "r2", "r_sr", "winner", "degenerate"}
