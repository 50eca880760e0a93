"""Classification, equalizing schedule, perturbation argument, certification."""

import math

import pytest
from hypothesis import given, strategies as st

import diamond_relay.optimality as optimality
from diamond_relay import (
    ChannelSpec,
    ConditionError,
    CutSetSolution,
    DiamondRelayError,
    DomainError,
    FeasibilityError,
    HypothesisError,
    InvariantError,
    LemmaCase,
    LinkCapacities,
    NegativeGapError,
    PerturbationSpec,
    certify,
    certify_capacities,
    classify,
    cut_values,
    induced_capacities,
    perturbation_check,
    predicted_rate,
    product_condition_holds,
    solve_bound,
    sr_rate_min_form,
    t_star,
)
from oracles import DIFFERENTIAL_FAMILIES, SWEEP_FAMILIES, SYMMETRIES, differential_corpus

cap = st.floats(min_value=1e-2, max_value=10.0, allow_nan=False)


def caps_of(c01, c02, c13, c23):
    return induced_capacities(c01, c02, c13, c23)


def product_matched(c01, c02, c13):
    # c23 can reach c01*c02/c13 ~ 1e4 here, far beyond any realizable SNR,
    # so supply explicit dominating cut capacities instead of inducing them
    c23 = c01 * c02 / c13
    return induced_capacities(c01, c02, c13, c23, c012=c01 + c02, c123=c13 + c23)


class TestClassify:
    def test_matching_products(self):
        assert classify(caps_of(2.0, 3.0, 3.0, 2.0)) is LemmaCase.PRODUCT_EQUAL

    def test_matching_source_sides(self):
        assert classify(caps_of(1.0, 1.0, 2.0, 2.0)) is LemmaCase.SOURCE_SIDES_EQUAL

    def test_matching_relay_sides(self):
        assert classify(caps_of(4.0, 2.0, 1.0, 1.0)) is LemmaCase.RELAY_SIDES_EQUAL

    def test_equal_source_sides_with_larger_product_is_not_a_case(self):
        # c01 = c02 but the source product exceeds the relay product
        assert classify(caps_of(2.0, 2.0, 1.0, 3.0)) is LemmaCase.NONE

    def test_plain_asymmetric_instance(self):
        assert classify(caps_of(1.0, 2.0, 4.0, 2.0)) is LemmaCase.NONE

    def test_product_case_wins_overlap(self):
        # all equal satisfies every condition; only the first one certifies
        assert classify(caps_of(1.5, 1.5, 1.5, 1.5)) is LemmaCase.PRODUCT_EQUAL

    def test_unchanged_under_powers_of_two(self):
        # products of links below about 1e-154 underflow, above 1e154 overflow;
        # multiplying every capacity by 2^k is exact, so no verdict may move
        cases = [caps_of(2.0, 3.0, 3.0, 2.0), caps_of(1.0, 1.0, 2.0, 3.0),
                 caps_of(2.0, 3.0, 1.0, 1.0), caps_of(1.0, 2.0, 3.0, 4.0),
                 caps_of(1.0, 1.0 + 0.9e-9, 1.0, 1.0), caps_of(1.0, 1.0 + 1.1e-9, 1.0, 1.0)]
        for family in DIFFERENTIAL_FAMILIES:
            cases += differential_corpus(family, 20)
        for caps in cases:
            values = list(caps.to_dict().values())
            try:
                expected = classify(caps)
            except HypothesisError:
                continue
            for k in range(-600, 601):
                scaled = LinkCapacities(*(math.ldexp(v, k) for v in values))
                assert classify(scaled) is expected, (k, caps)

    def test_zero_link_rejected(self):
        with pytest.raises(HypothesisError, match="c23"):
            classify(caps_of(1.0, 1.0, 1.0, 0.0))

    def test_string_values(self):
        assert LemmaCase.PRODUCT_EQUAL.value == "product_equal"
        assert LemmaCase.SOURCE_SIDES_EQUAL.value == "source_sides_equal"
        assert LemmaCase.RELAY_SIDES_EQUAL.value == "relay_sides_equal"
        assert LemmaCase.NONE.value == "none"

    @given(c01=cap, c02=cap, c13=cap)
    def test_branch_rates_coincide_whenever_classified(self, c01, c02, c13):
        caps = product_matched(c01, c02, c13)
        res = sr_rate_min_form(caps)
        assert classify(caps) is LemmaCase.PRODUCT_EQUAL
        assert res.r1 == pytest.approx(res.r2, rel=1e-9, abs=1e-9)


class TestPredictedRate:
    def test_product_case_value(self):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        assert predicted_rate(caps, LemmaCase.PRODUCT_EQUAL) == pytest.approx(2.4, abs=1e-12)

    def test_source_case_value(self):
        assert predicted_rate(caps_of(1.0, 1.0, 2.0, 2.0), LemmaCase.SOURCE_SIDES_EQUAL) == 1.0

    def test_relay_case_value(self):
        assert predicted_rate(caps_of(4.0, 2.0, 1.0, 1.0), LemmaCase.RELAY_SIDES_EQUAL) == 1.0

    def test_no_case_raises(self):
        with pytest.raises(ConditionError):
            predicted_rate(caps_of(1.0, 2.0, 4.0, 2.0), LemmaCase.NONE)

    @pytest.mark.parametrize("case", ["none", None, "product_equal"])
    def test_rejects_what_is_not_a_lemma_case(self, case):
        with pytest.raises(DomainError, match="lemma_case must be a LemmaCase"):
            predicted_rate(caps_of(2.0, 3.0, 3.0, 2.0), case)

    @given(c01=cap, c02=cap, c13=cap)
    def test_matches_achieved_rate_under_product_condition(self, c01, c02, c13):
        caps = product_matched(c01, c02, c13)
        want = predicted_rate(caps, LemmaCase.PRODUCT_EQUAL)
        assert sr_rate_min_form(caps).r_sr == pytest.approx(want, rel=1e-9)


class TestTStar:
    def test_worked_instance(self):
        caps = caps_of(1.0, 6.0, 3.0, 2.0)
        ts = t_star(caps)
        assert ts == pytest.approx((0.0, 0.25, 0.75, 0.0), abs=1e-12)
        for v in cut_values(caps, ts):
            assert v == pytest.approx(2.25, abs=1e-12)

    @given(c01=cap, c02=cap, c13=cap)
    def test_equalizes_all_four_cuts(self, c01, c02, c13):
        caps = product_matched(c01, c02, c13)
        values = cut_values(caps, t_star(caps))
        spread = max(values) - min(values)
        assert spread <= 1e-9 * max(1.0, max(values))

    def test_needs_product_condition(self):
        with pytest.raises(ConditionError):
            t_star(caps_of(1.0, 1.0, 2.0, 2.0))

    def test_needs_positive_links(self):
        with pytest.raises(HypothesisError):
            t_star(caps_of(0.0, 1.0, 1.0, 1.0))


class TestPerturbationSpec:
    def test_rejects_negative_epsilon(self):
        with pytest.raises(DomainError):
            PerturbationSpec(epsilon=-0.1, eta=0.0, gamma=-0.05, delta=-0.05)

    def test_rejects_time_imbalance(self):
        with pytest.raises(DomainError, match="conservation"):
            PerturbationSpec(epsilon=0.1, eta=0.0, gamma=0.2, delta=0.2)

    def test_negative_gamma_allowed_when_balanced(self):
        pert = PerturbationSpec(epsilon=0.0, eta=0.0, gamma=-0.1, delta=0.1)
        assert pert.gamma == -0.1


class TestPerturbationCheck:
    def test_balanced_move_changes_nothing(self):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        pert = PerturbationSpec(epsilon=0.1, eta=0.0, gamma=0.05, delta=0.05)
        assert perturbation_check(caps, pert) == (0.0, 0.0)

    def test_shifting_between_phases_trades_cuts(self):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        pert = PerturbationSpec(epsilon=0.0, eta=0.0, gamma=0.1, delta=-0.1)
        d2, d3 = perturbation_check(caps, pert)
        assert d2 == pytest.approx(-0.6, abs=1e-12)
        assert d3 == pytest.approx(0.4, abs=1e-12)

    def test_infeasible_move_rejected(self):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        pert = PerturbationSpec(epsilon=0.5, eta=0.0, gamma=0.5, delta=0.0)
        with pytest.raises(FeasibilityError):
            perturbation_check(caps, pert)

    @given(
        c01=cap,
        c02=cap,
        c13=cap,
        eps=st.floats(min_value=0.0, max_value=0.05),
        eta=st.floats(min_value=0.0, max_value=0.05),
        split=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_deltas_never_share_a_sign(self, c01, c02, c13, eps, eta, split):
        """Whatever feasible direction the schedule moves, one of the two
        middle cuts loses: their first-order changes cannot both be positive."""
        caps = product_matched(c01, c02, c13)
        ts = t_star(caps)
        room = min(ts[1], ts[2])
        eps, eta = eps * room, eta * room
        sigma = eps + eta
        lo, hi = sigma - ts[2], ts[1]
        gamma = lo + split * (hi - lo)
        pert = PerturbationSpec(epsilon=eps, eta=eta, gamma=gamma, delta=sigma - gamma)
        d2, d3 = perturbation_check(caps, pert)
        assert d2 * d3 <= 1e-18


class TestCertify:
    @pytest.mark.parametrize("family", SWEEP_FAMILIES)
    def test_certified_is_invariant_under_symmetry(self, family):
        # the LP's value and both capacity products are exactly invariant
        # under these maps, so the verdict must be too, even where the bound's
        # last bit moves (TestExactSymmetries in test_cutset_lp)
        for caps in differential_corpus(family, 1000):
            certified = certify_capacities(caps).capacity_certified
            for name, symmetry in SYMMETRIES.items():
                assert certify_capacities(symmetry(caps)).capacity_certified is certified, (
                    name, caps)

    def test_symmetric_instance_is_certified(self):
        spec = ChannelSpec(
            g01=3.0, g02=3.0, g13=3.0, g23=3.0,
            sigma1_sq=1.0, sigma2_sq=1.0, sigma3_sq=1.0,
            p_s=1.0, p_r1=1.0, p_r2=1.0,
        )
        report = certify(spec)
        assert report.r_sr == pytest.approx(2.0, abs=1e-12)
        assert report.capacity_certified
        assert report.lemma_case is LemmaCase.PRODUCT_EQUAL
        assert report.gap == pytest.approx(0.0, abs=1e-9)

    def test_mirrored_gains_are_certified(self):
        spec = ChannelSpec(
            g01=3.0, g02=7.0, g13=7.0, g23=3.0,
            sigma1_sq=1.0, sigma2_sq=1.0, sigma3_sq=1.0,
            p_s=1.0, p_r1=1.0, p_r2=1.0,
        )
        assert certify(spec).capacity_certified

    def test_source_sides_equal_is_not_certified(self):
        report = certify_capacities(caps_of(1.0, 1.0, 2.0, 2.0))
        assert report.lemma_case is LemmaCase.SOURCE_SIDES_EQUAL
        assert not report.capacity_certified
        assert report.gap > 1e-3
        assert report.t_star is None

    def test_report_dict_round_trip_values(self):
        report = certify_capacities(caps_of(2.0, 3.0, 3.0, 2.0))
        d = report.to_dict()
        assert d["lemma_case"] == "product_equal"
        assert d["capacity_certified"] is True
        assert d["condition_holds"] is True
        assert d["t_star"] == pytest.approx((0.0, 0.4, 0.6, 0.0), abs=1e-12)
        assert d["hypothesis_warning"] is None

    def test_dead_branch_certifies_on_zero_gap_but_warns(self):
        """With relay 1 fully cut off, both capacity products vanish, the
        schedule degenerates to time-sharing relay 2, and the bound is met
        exactly. Certification stands on the zero gap; the warning records
        that the equal-branch classification did not apply."""
        report = certify_capacities(caps_of(0.0, 2.0, 0.0, 2.0))
        assert report.lemma_case is LemmaCase.NONE
        assert report.hypothesis_warning is not None
        assert report.condition_holds
        assert report.gap == pytest.approx(0.0, abs=1e-12)
        assert report.capacity_certified

    def test_dead_link_with_mismatched_products_is_not_certified(self):
        report = certify_capacities(caps_of(0.0, 2.0, 1.0, 2.0))
        assert report.lemma_case is LemmaCase.NONE
        assert report.hypothesis_warning is not None
        assert not report.condition_holds
        assert not report.capacity_certified

    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_gap_never_negative(self, c01, c02, c13, c23):
        report = certify_capacities(caps_of(c01, c02, c13, c23))
        assert report.gap >= -1e-9

    @given(c01=cap, c02=cap, c13=cap, c23=cap)
    def test_certified_only_with_condition_and_tiny_gap(self, c01, c02, c13, c23):
        report = certify_capacities(caps_of(c01, c02, c13, c23))
        if report.capacity_certified:
            assert report.condition_holds
            assert report.gap <= 1e-8 * max(1.0, report.bound)

    @given(c01=cap, c02=cap, c13=cap)
    def test_product_condition_certifies(self, c01, c02, c13):
        caps = product_matched(c01, c02, c13)
        report = certify_capacities(caps)
        assert report.capacity_certified
        assert report.bound == pytest.approx(solve_bound(caps).bound)

    def test_clamped_tie_keeps_the_bound(self):
        """A tied vertex with t1 = -3.4e-10, inside the feasibility slack,
        ranks first in the tie-break. Clamping t1 to 0 would cost 1.4e-9 of
        the bound and put it below the achievable rate, so the next tied
        vertex is taken."""
        caps = caps_of(8.060851863018604, 0.00024069706461576419, 4.364845424989258, 0.0)
        report = certify_capacities(caps)
        assert report.gap == 0.0
        assert report.bound == report.r_sr
        assert not report.capacity_certified

    def test_bound_below_rate_is_a_typed_defect(self, monkeypatch):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        rate = sr_rate_min_form(caps).r_sr
        low = rate - 1e-6
        broken = CutSetSolution(
            t=(0.0, 0.4, 0.6, 0.0), bound=low, cut_values=(low,) * 4, binding=frozenset({1})
        )
        monkeypatch.setattr(optimality, "solve_bound", lambda caps: broken)
        with pytest.raises(NegativeGapError) as info:
            certify_capacities(caps)
        # a package defect, never reported by the CLI as bad input (exit 2)
        assert isinstance(info.value, InvariantError)
        assert not isinstance(info.value, DiamondRelayError)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the negative-gap guard is absolute (gap < -1e-9), so at tiny scale a "
        "bound of 0.0 below the rate passes unnoticed (ROADMAP direction 1)",
    )
    def test_bound_below_rate_at_tiny_scale_is_caught(self):
        # today: bound 0.0, gap -1.125e-170, and certify exits 1
        caps = caps_of(1e-170, 2e-170, 3e-170, 5e-171)
        try:
            report = certify_capacities(caps)
        except NegativeGapError:
            return
        assert report.bound >= report.r_sr, (report.bound, report.gap)

    def test_condition_helper_agrees_with_classifier(self):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        assert product_condition_holds(caps)
        assert not product_condition_holds(caps_of(1.0, 1.0, 2.0, 2.0))
