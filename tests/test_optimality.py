"""Classification, equalizing schedule, perturbation argument, certification."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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
from oracles import (
    DIFFERENTIAL_FAMILIES,
    SWEEP_FAMILIES,
    SYMMETRIES,
    differential_corpus,
    exact_bound,
    relay_swap,
    reversal,
    times_power_of_two,
)

cap = st.floats(min_value=1e-2, max_value=10.0, allow_nan=False)
# every capacity of the instances below stays a normal float times 2^k
wide_k = st.integers(min_value=-1000, max_value=1000)


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

    @given(c01=cap, c02=cap, c13=cap, c23=cap, k=wide_k)
    # c01 and c02 agree within 1e-9 at 2^-1022 but not at 1 when 1e-9 * c02 is
    # taken as a float, which is subnormal there
    @example(c01=1.0, c02=1.000000001, c13=2.000000002, c23=2.000000002, k=-1022)
    def test_verdicts_unchanged_under_wide_power_of_two_scaling(self, c01, c02, c13, c23, k):
        # a relay swap exchanges the factors within each product and within each side
        for caps in (caps_of(c01, c02, c13, c23), product_matched(c01, c02, c13)):
            scaled = times_power_of_two(caps, k)
            for moved in (scaled, relay_swap(scaled)):
                assert classify(moved) is classify(caps)
                assert product_condition_holds(moved) == product_condition_holds(caps)

    @given(side=cap, c13=cap, c23=cap, k=wide_k)
    @example(side=1.0, c13=2.0, c23=3.0, k=0)
    def test_reversal_swaps_the_side_cases(self, side, c13, c23, k):
        # reversal exchanges the two products and the two sides, so a source
        # side case becomes a relay side case and back; c01 = c02 makes both occur
        caps = times_power_of_two(caps_of(side, side, c13, c23), k)
        swapped = {LemmaCase.SOURCE_SIDES_EQUAL: LemmaCase.RELAY_SIDES_EQUAL,
                   LemmaCase.RELAY_SIDES_EQUAL: LemmaCase.SOURCE_SIDES_EQUAL}
        for instance in (caps, reversal(caps)):
            case = classify(instance)
            assert classify(reversal(instance)) is swapped.get(case, case)


LINKS = ("c01", "c02", "c13", "c23")


class TestPositiveLinkGate:
    """classify, predicted_rate and t_star refuse a zero link before anything else."""

    @pytest.mark.parametrize("name", LINKS)
    def test_every_entry_point_refuses_a_zero_link(self, name):
        caps = caps_of(**{**dict(zip(LINKS, (2.0, 3.0, 3.0, 2.0))), name: 0.0})
        calls = [classify, t_star]
        calls += [lambda caps, case=case: predicted_rate(caps, case) for case in LemmaCase]
        for call in calls:
            with pytest.raises(HypothesisError, match=rf"^{name} = 0: "):
                call(caps)

    @pytest.mark.parametrize("case", ["none", None, "product_equal"])
    def test_zero_link_is_refused_before_a_bad_lemma_case(self, case):
        with pytest.raises(HypothesisError, match=r"^c13 = 0: "):
            predicted_rate(caps_of(2.0, 3.0, 0.0, 2.0), case)

    def test_smallest_positive_links_pass(self):
        tiny = LinkCapacities(*(v * 5e-324 for v in (1, 1, 1, 1, 2, 2)))
        assert classify(tiny) is LemmaCase.PRODUCT_EQUAL
        assert t_star(tiny) == (0.0, 0.5, 0.5, 0.0)


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

    def test_zero_link_raises_hypothesis_error(self):
        with pytest.raises(HypothesisError, match="c01 = 0"):
            predicted_rate(caps_of(0.0, 1.0, 0.0, 1.0), LemmaCase.PRODUCT_EQUAL)

    @given(c01=cap, c02=cap, c13=cap)
    def test_matches_achieved_rate_under_product_condition(self, c01, c02, c13):
        caps = product_matched(c01, c02, c13)
        want = predicted_rate(caps, LemmaCase.PRODUCT_EQUAL)
        assert sr_rate_min_form(caps).r_sr == pytest.approx(want, rel=1e-9)

    @given(c01=cap, c02=cap, c13=cap, k=wide_k)
    def test_product_rate_is_the_exact_rate_rounded_once(self, c01, c02, c13, k):
        caps = times_power_of_two(product_matched(c01, c02, c13), k)
        a, b, c = map(Fraction, (caps.c01, caps.c02, caps.c13))
        assert predicted_rate(caps, LemmaCase.PRODUCT_EQUAL) == float(a * (c + b) / (c + a))

    @given(c01=cap, c02=cap, c13=cap, k=wide_k)
    def test_product_rate_is_homogeneous_under_power_of_two_scaling(self, c01, c02, c13, k):
        caps = product_matched(c01, c02, c13)
        rate = predicted_rate(caps, LemmaCase.PRODUCT_EQUAL)  # normal times 2^k, too
        scaled = predicted_rate(times_power_of_two(caps, k), LemmaCase.PRODUCT_EQUAL)
        assert scaled == math.ldexp(rate, k)


class TestTStar:
    def test_worked_instance(self):
        caps = caps_of(1.0, 6.0, 3.0, 2.0)
        ts = t_star(caps)
        assert ts == pytest.approx((0.0, 0.25, 0.75, 0.0), abs=1e-12)
        for v in cut_values(caps, ts):
            assert v == pytest.approx(2.25, abs=1e-12)

    @given(c01=cap, c02=cap, c13=cap, k=wide_k)
    def test_equalizes_all_four_cuts(self, c01, c02, c13, k):
        # the cuts evaluated exactly at the returned t*: only its rounding and
        # the float c23's product mismatch (a few ulps) may part them
        caps = times_power_of_two(product_matched(c01, c02, c13), k)
        a, b, c, d, ab, cd = map(Fraction, caps.to_dict().values())
        t = tuple(map(Fraction, t_star(caps)))
        rows = ((ab, b, a, 0), (b, b + c, 0, c), (a, 0, a + d, d), (0, c, d, cd))
        cuts = [sum(m * x for m, x in zip(row, t)) for row in rows]
        assert max(cuts) - min(cuts) <= max(cuts) / 2**50

    def test_needs_product_condition(self):
        with pytest.raises(ConditionError):
            t_star(caps_of(1.0, 1.0, 2.0, 2.0))

    def test_needs_positive_links(self):
        with pytest.raises(HypothesisError):
            t_star(caps_of(0.0, 1.0, 1.0, 1.0))

    @given(c01=cap, c02=cap, c13=cap, k=wide_k)
    def test_entries_are_the_exact_closed_forms_rounded_once(self, c01, c02, c13, k):
        caps = product_matched(c01, c02, c13)
        a, b, c, d = map(Fraction, (caps.c01, caps.c02, caps.c13, caps.c23))
        ts = t_star(caps)
        assert ts == (0.0, float(a / (c + a)), float(b / (b + d)), 0.0)
        # every scaled link stays a normal float, so the exact forms do not move
        assert t_star(times_power_of_two(caps, k)) == ts

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_condition_error_gives_the_exact_relative_mismatch(self, scale):
        # c01*c02 = s^2 against c13*c23 = 4 s^2: both products leave the double range
        caps = LinkCapacities(scale, scale, 2 * scale, 2 * scale, 2 * scale, 4 * scale)
        with pytest.raises(ConditionError, match=r"differ by 0\.75 relative"):
            t_star(caps)

    def test_schedule_in_the_top_binade(self):
        # c13 + c01 = 5 * 2^1022 is past the largest double
        caps = LinkCapacities(*(math.ldexp(v, 1022) for v in (2, 3, 3, 2, 3, 3)))
        assert t_star(caps) == (0.0, 0.4, 0.6, 0.0)

    @given(c01=cap, c02=cap, c13=cap, k=wide_k)
    def test_relay_swap_swaps_the_middle_entries(self, c01, c02, c13, k):
        caps = times_power_of_two(product_matched(c01, c02, c13), k)
        _, t2, t3, _ = t_star(caps)
        assert t_star(relay_swap(caps)) == (0.0, t3, t2, 0.0)


def normalized(caps):
    """The paper's normalization, exact: a = c02, b = c01, alpha = c13/a, beta = c23/b."""
    a, b = Fraction(caps.c02), Fraction(caps.c01)
    return a, b, Fraction(caps.c13) / a, Fraction(caps.c23) / b


class TestNormalizedCondition:
    def test_paper_example(self):
        # (2, 3, 3, 2): a = 3, b = 2, alpha = beta = 1; rate ab(1 + alpha)/(alpha a + b)
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        assert normalized(caps) == (3, 2, 1, 1)
        assert product_condition_holds(caps)
        assert predicted_rate(caps, LemmaCase.PRODUCT_EQUAL) == 2.4
        assert t_star(caps) == (0.0, 0.4, 0.6, 0.0)

    @given(c01=cap, c02=cap, c13=cap, u=st.floats(min_value=-3e-9, max_value=3e-9), k=wide_k)
    @example(c01=1.0, c02=1.0, c13=1.0, u=0.9e-9, k=0)
    @example(c01=1.0, c02=1.0, c13=1.0, u=-1.1e-9, k=0)
    def test_condition_holds_exactly_when_alpha_beta_is_one(self, c01, c02, c13, u, k):
        # the 1e-9 relative tolerance of the products, read as |alpha beta - 1|
        c23 = c01 * c02 / c13 * (1.0 + u)
        caps = times_power_of_two(
            induced_capacities(c01, c02, c13, c23, c012=c01 + c02, c123=c13 + c23), k)
        _, _, alpha, beta = normalized(caps)
        ab = alpha * beta
        holds = abs(ab - 1) * 10**9 <= max(1, ab)
        assert product_condition_holds(caps) == holds
        assert (classify(caps) is LemmaCase.PRODUCT_EQUAL) == holds

    @given(i=st.integers(1, 1000), j=st.integers(1, 1000), m=st.integers(1, 1000),
           n=st.integers(1, 1000), k=wide_k)
    def test_schedule_and_rate_in_normalized_form(self, i, j, m, n, k):
        # c01 c02 = c13 c23 = ijmn exactly, so alpha beta = 1 with no rounding
        c01, c02, c13, c23 = (math.ldexp(v, k) for v in (i * m, j * n, i * j, m * n))
        caps = LinkCapacities(c01, c02, c13, c23, c01 + c02, c13 + c23)
        a, b, alpha, beta = normalized(caps)
        assert alpha * beta == 1
        t2, t3 = b / (alpha * a + b), a / (a + beta * b)
        assert t2 + t3 == 1
        rate = a * b * (1 + alpha) / (alpha * a + b)
        assert t_star(caps) == (0.0, float(t2), float(t3), 0.0)
        assert predicted_rate(caps, LemmaCase.PRODUCT_EQUAL) == float(rate)
        # at the exact t* every cut is the rate: c02 t2 + c01 t3, (c02 + c13) t2,
        # (c01 + c23) t3 and c13 t2 + c23 t3
        c = alpha * a
        d = beta * b
        assert {a * t2 + b * t3, (a + c) * t2, (b + d) * t3, c * t2 + d * t3} == {rate}


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

    def test_extreme_link_ratio(self):
        # c13/c02 = 1e-600 is below the double range
        caps = LinkCapacities(1e-300, 1e300, 1e-300, 1e300, 1e300, 1e300)
        pert = PerturbationSpec(epsilon=0.1, eta=0.0, gamma=0.05, delta=0.05)
        d2, d3 = perturbation_check(caps, pert)
        assert (d2, d3) == pytest.approx((5e298, -5e298), rel=1e-9)

    def test_cut_2_change_past_the_largest_double_is_inf(self):
        # all of t3* moved into t2*: gamma*(c02 + c13) is about 2^1025
        big = 1.75 * 2.0**1023
        caps = LinkCapacities(2.0**1000, big, big, 2.0**1000, big, big)
        t3 = t_star(caps)[2]
        pert = PerturbationSpec(epsilon=0.0, eta=0.0, gamma=-t3, delta=t3)
        assert perturbation_check(caps, pert) == (math.inf, -2.143017068391082e+301)

    def test_cut_3_change_past_the_largest_double_is_inf(self):
        # the relay-swapped instance, all of t2* moved into t3*
        big = 1.75 * 2.0**1023
        caps = LinkCapacities(big, 2.0**1000, 2.0**1000, big, big, big)
        t2 = t_star(caps)[1]
        pert = PerturbationSpec(epsilon=0.0, eta=0.0, gamma=t2, delta=-t2)
        assert perturbation_check(caps, pert) == (-2.143017068391082e+301, math.inf)

    def test_balanced_move_changes_nothing_at_large_scale(self):
        # (2, 3, 3, 2) times 2^14: one ulp of the cuts there is about 7e-12
        caps = LinkCapacities(32768, 49152, 49152, 32768, 49152, 49152)
        pert = PerturbationSpec(epsilon=0.1, eta=0.1, gamma=0.1, delta=0.1)
        assert perturbation_check(caps, pert) == (0.0, 0.0)

    @given(
        c01=cap,
        c02=cap,
        c13=cap,
        eps=st.floats(min_value=0.0, max_value=0.05),
        eta=st.floats(min_value=0.0, max_value=0.05),
        split=st.floats(min_value=0.0, max_value=1.0),
        k=wide_k,
    )
    def test_deltas_never_share_a_sign(self, c01, c02, c13, eps, eta, split, k):
        """Whatever feasible direction the schedule moves, one of the two
        middle cuts loses: their first-order changes cannot both be positive.
        Both are the paper's closed forms rounded once, at every scale."""
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
        a, b, c = map(Fraction, (caps.c01, caps.c02, caps.c13))
        exact = Fraction(eps) * b - Fraction(gamma) * (b + c) + Fraction(eta) * c
        assert (d2, d3) == (float(exact), float(-exact * a / c))
        wide = perturbation_check(times_power_of_two(caps, k), pert)
        if all(d == 0.0 or abs(d) >= sys.float_info.min for d in (d2, d3, *wide)):
            assert wide == (math.ldexp(d2, k), math.ldexp(d3, k))


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
            assert abs(report.gap) <= 1e-8 * report.bound

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

    def test_bound_below_rate_at_small_scale_is_not_certified(self):
        # the paper's example x 2^-40: the float solver's absolute slack reads
        # a bound of 0.0 below the rate (ROADMAP direction 1); the relative gap
        # rule refuses the certificate there, as it would at scale 1
        caps = times_power_of_two(LinkCapacities(2, 3, 3, 2, 3.5, 3.5), -40)
        report = certify_capacities(caps)
        assert report.condition_holds
        assert report.bound == 0.0 < report.r_sr == 2.1827872842550277e-12
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

    @pytest.mark.xfail(
        strict=True,
        raises=NegativeGapError,
        reason="products within 1e-9 but not equal: solve_bound lands 1.2e-9 below the "
        "exact bound and 1.1e-9 below the rate (ROADMAP direction 1)",
    )
    def test_near_product_equal_bound_is_not_below_rate(self):
        caps = caps_of(12.676118042104363, 1.8538646264246879,
                       14.650369071521808, 1.6040419675422457)
        report = certify_capacities(caps)
        assert report.lemma_case is LemmaCase.PRODUCT_EQUAL
        assert report.bound >= report.r_sr

    @pytest.mark.xfail(
        strict=True,
        raises=NegativeGapError,
        reason="the absolute 1e-9 gap guard is below the solver's error at x1e7: "
        "solve_bound lands one ulp (3.7e-9) below the rate (ROADMAP direction 1)",
    )
    def test_forced_product_bound_at_1e7_is_not_below_rate(self):
        # seed 0, index 4 of LogUniform(0.1, 10) forced product, times 1e7;
        # the exact bound exceeds the exact rate by 1.4e-10, and certify exits 70
        caps = LinkCapacities(c01=26893123.018264975, c02=33556871.3172561,
                              c13=3135044.1407368053, c23=287858488.7264012,
                              c012=39714808.180237256, c123=287859149.50014937)
        report = certify_capacities(caps)
        assert report.gap >= 0
        assert report.bound == float(exact_bound(caps))

    def test_condition_helper_agrees_with_classifier(self):
        caps = caps_of(2.0, 3.0, 3.0, 2.0)
        assert product_condition_holds(caps)
        assert not product_condition_holds(caps_of(1.0, 1.0, 2.0, 2.0))

    @pytest.mark.parametrize("scale", [2.0**-20, 1.0, 2.0**20])
    @pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
    def test_condition_is_the_product_test(self, family, scale):
        # certify reads the condition from classify, or from the product test
        # itself when classify refuses a zero link
        for caps in differential_corpus(family, 50, seed=5, scale=scale):
            assert certify_capacities(caps).condition_holds == product_condition_holds(caps)


class TestPatchPoints:
    """certify_capacities reaches its layers through optimality's module
    globals, where a caller may wrap them (the benchmark's spans do): each
    wrapper must see exactly the calls the certificate makes."""

    LAYERS = ("sr_rate_min_form", "solve_bound", "classify", "t_star")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = dict.fromkeys(self.LAYERS, 0)
        for name in self.LAYERS:
            def counted(*args, _name=name, _layer=getattr(optimality, name)):
                calls[_name] += 1
                return _layer(*args)

            monkeypatch.setattr(optimality, name, counted)
        return calls

    def test_product_equal_instance_runs_each_layer_once(self, calls):
        report = certify_capacities(caps_of(2.0, 3.0, 3.0, 2.0))
        assert report.lemma_case is LemmaCase.PRODUCT_EQUAL
        assert calls == dict.fromkeys(self.LAYERS, 1)

    def test_unconditioned_instance_runs_no_t_star(self, calls):
        report = certify_capacities(caps_of(1.0, 2.0, 3.0, 5.0))
        assert report.lemma_case is LemmaCase.NONE
        assert calls == {"sr_rate_min_form": 1, "solve_bound": 1, "classify": 1, "t_star": 0}
