"""Gains-to-capacities layer: validation, known values, round trips."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diamond_relay import (
    ChannelSpec,
    DomainError,
    LinkCapacities,
    SweepConfig,
    derive_capacities,
    gain_for_capacity,
    induced_capacities,
    link_capacity,
)
from diamond_relay.channel_model import _checked_value

LOG2_7 = 2.807354922057604
LOG2_13 = 3.700439718141092


def unit_spec(**overrides):
    base = dict(
        g01=1.0, g02=1.0, g13=1.0, g23=1.0,
        sigma1_sq=1.0, sigma2_sq=1.0, sigma3_sq=1.0,
        p_s=1.0, p_r1=1.0, p_r2=1.0,
    )
    base.update(overrides)
    return ChannelSpec(**base)


finite_gain = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
positive_gain = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestLinkCapacity:
    def test_unit_snr_is_one_bit(self):
        assert link_capacity(1.0, 1.0, 1.0) == 1.0

    def test_snr_three_is_two_bits(self):
        assert link_capacity(3.0, 1.0, 1.0) == 2.0

    def test_zero_gain_is_exactly_zero(self):
        assert link_capacity(0.0, 5.0, 2.0) == 0.0

    def test_zero_power_is_exactly_zero(self):
        assert link_capacity(5.0, 0.0, 2.0) == 0.0

    def test_noise_scales_snr(self):
        assert link_capacity(6.0, 2.0, 4.0) == pytest.approx(2.0, abs=1e-15)

    def test_tiny_snr_keeps_precision(self):
        # log2(1 + x) ~ x/ln2 for small x; the naive form would lose digits
        c = link_capacity(1e-12, 1.0, 1.0)
        assert c == pytest.approx(1e-12 / math.log(2), rel=1e-9)

    def test_rejects_negative_gain(self):
        with pytest.raises(DomainError):
            link_capacity(-1.0, 1.0, 1.0)

    def test_rejects_zero_noise(self):
        with pytest.raises(DomainError):
            link_capacity(1.0, 1.0, 0.0)

    @given(g=positive_gain, bump=positive_gain)
    def test_monotone_in_gain(self, g, bump):
        assert link_capacity(g + bump, 1.0, 1.0) >= link_capacity(g, 1.0, 1.0)


class TestChannelSpec:
    def test_rejects_negative_gain(self):
        with pytest.raises(DomainError, match="g13"):
            unit_spec(g13=-0.5)

    def test_rejects_zero_noise(self):
        with pytest.raises(DomainError, match="sigma2_sq"):
            unit_spec(sigma2_sq=0.0)

    def test_rejects_nan(self):
        with pytest.raises(DomainError, match="p_s"):
            unit_spec(p_s=float("nan"))

    def test_rejects_bool(self):
        with pytest.raises(DomainError, match="g01"):
            unit_spec(g01=True)

    def test_zero_power_allowed(self):
        assert unit_spec(p_r1=0.0).p_r1 == 0.0

    def test_dict_round_trip(self):
        spec = unit_spec(g01=2.5, sigma3_sq=0.7)
        assert ChannelSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        data = unit_spec().to_dict()
        data["g03"] = 1.0
        data["extra"] = 2.0
        with pytest.raises(DomainError, match="extra, g03"):
            ChannelSpec.from_dict(data)

    def test_from_dict_rejects_missing_keys(self):
        data = unit_spec().to_dict()
        del data["p_r2"]
        del data["g23"]
        with pytest.raises(DomainError, match="g23, p_r2"):
            ChannelSpec.from_dict(data)


class TestDeriveCapacities:
    def test_symmetric_snr_three(self):
        """All gains 3, unit everything else: each link carries 2 bits,
        the source cut sees summed SNR 6 and the relay cut coherent SNR 12."""
        caps = derive_capacities(unit_spec(g01=3.0, g02=3.0, g13=3.0, g23=3.0))
        assert caps.c01 == caps.c02 == caps.c13 == caps.c23 == 2.0
        assert caps.c012 == pytest.approx(LOG2_7, abs=1e-12)
        assert caps.c123 == pytest.approx(LOG2_13, abs=1e-12)

    def test_broadcast_cut_sums_per_relay_snr(self):
        caps = derive_capacities(unit_spec(g01=1.0, g02=2.0, sigma2_sq=0.5))
        assert caps.c012 == pytest.approx(math.log2(1.0 + 1.0 + 4.0), abs=1e-12)

    def test_coherent_cut_adds_amplitudes(self):
        caps = derive_capacities(unit_spec(g13=4.0, g23=9.0))
        assert caps.c123 == pytest.approx(math.log2(1.0 + 25.0), abs=1e-12)

    def test_silent_source(self):
        caps = derive_capacities(unit_spec(p_s=0.0))
        assert caps.c01 == caps.c02 == caps.c012 == 0.0
        assert caps.c13 == 1.0

    @given(
        g01=finite_gain, g02=finite_gain, g13=finite_gain, g23=finite_gain,
        p=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_cut_capacities_dominate_links(self, g01, g02, g13, g23, p):
        # squaring a square root can land 1 ulp short, so dominance holds up
        # to the same relative slack the constructor tolerates
        caps = derive_capacities(unit_spec(g01=g01, g02=g02, g13=g13, g23=g23, p_s=p))
        assert caps.c012 >= max(caps.c01, caps.c02) - 1e-9 * max(1.0, caps.c012)
        assert caps.c123 >= max(caps.c13, caps.c23) - 1e-9 * max(1.0, caps.c123)


class TestInducedCapacities:
    def test_matches_gain_space_derivation(self):
        """Building from link capacities alone must agree with deriving from
        the unit-power unit-noise gains that produce those capacities."""
        spec = unit_spec(g01=2.0, g02=5.0, g13=0.3, g23=7.0)
        via_gains = derive_capacities(spec)
        via_caps = induced_capacities(
            via_gains.c01, via_gains.c02, via_gains.c13, via_gains.c23
        )
        assert via_caps.c012 == pytest.approx(via_gains.c012, rel=1e-12)
        assert via_caps.c123 == pytest.approx(via_gains.c123, rel=1e-12)

    def test_explicit_cut_capacities_kept(self):
        caps = induced_capacities(1.0, 1.0, 1.0, 1.0, c012=3.0, c123=4.0)
        assert caps.c012 == 3.0
        assert caps.c123 == 4.0

    def test_zero_links_give_zero_cuts(self):
        caps = induced_capacities(0.0, 0.0, 0.0, 0.0)
        assert caps.c012 == 0.0
        assert caps.c123 == 0.0

    def test_rejects_undominated_cut_capacity(self):
        with pytest.raises(DomainError):
            induced_capacities(2.0, 3.0, 1.0, 1.0, c012=2.5)

    def test_rejects_capacity_too_large_for_snr(self):
        with pytest.raises(DomainError, match="too large"):
            induced_capacities(1.0, 2000.0, 1.0, 1.0)
        # each SNR is finite, their combination is not
        with pytest.raises(DomainError, match="c01 and c02 are too large to combine"):
            induced_capacities(1023.5, 1023.5, 1, 1)
        with pytest.raises(DomainError, match="c13 and c23 are too large to combine"):
            induced_capacities(1, 1, 1023.5, 1023.5)

    def test_rejects_negative_capacity(self):
        with pytest.raises(DomainError):
            induced_capacities(1.0, -0.1, 1.0, 1.0)

    def test_rejects_integer_beyond_double_range(self):
        huge = 10**400  # float() raises OverflowError on it
        with pytest.raises(DomainError, match="c23 must be finite"):
            induced_capacities(1, 1, 1, huge)
        with pytest.raises(DomainError, match="c012 must be finite"):
            LinkCapacities(c01=1, c02=1, c13=1, c23=1, c012=huge, c123=2)
        with pytest.raises(DomainError, match="p_r2 must be finite"):
            unit_spec(p_r2=huge)
        with pytest.raises(DomainError, match=r"noise\[2\] must be finite"):
            SweepConfig(n_samples=1, seed=0, noise=(1.0, 1.0, huge))


class TestGainForCapacity:
    @given(c=st.floats(min_value=1e-9, max_value=60.0))
    def test_round_trip(self, c):
        assert link_capacity(gain_for_capacity(c), 1.0, 1.0) == pytest.approx(c, rel=1e-12)

    def test_accounts_for_power_and_noise(self):
        g = gain_for_capacity(2.0, power=0.5, noise_var=2.0)
        assert link_capacity(g, 0.5, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_zero_capacity_needs_zero_gain(self):
        assert gain_for_capacity(0.0) == 0.0

    def test_rejects_zero_power(self):
        with pytest.raises(DomainError):
            gain_for_capacity(1.0, power=0.0)


class TestLinkCapacitiesValidation:
    def test_to_dict_field_order(self):
        caps = induced_capacities(2.0, 3.0, 3.0, 2.0)
        assert list(caps.to_dict()) == ["c01", "c02", "c13", "c23", "c012", "c123"]

    def test_rejects_nan_field(self):
        with pytest.raises(DomainError, match="c13"):
            LinkCapacities(c01=1.0, c02=1.0, c13=float("nan"), c23=1.0, c012=2.0, c123=2.0)

    def test_frozen(self):
        caps = induced_capacities(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            caps.c01 = 2.0


class _FloatSubclass(float):
    pass


class TestCheckedValue:
    """The one number validator, entry by entry: a finite plain float in range
    comes back as itself, -0.0 as 0.0, everything else as a plain float or DomainError."""

    @pytest.mark.parametrize(
        "value, low, strict, want",
        [
            (0.0, 0.0, False, "0.0"),
            (0.0, 0.0, True, "x must be > 0, got 0.0"),
            (-0.0, 0.0, False, "0.0"),
            (-0.0, 0.0, True, "x must be > 0, got 0.0"),
            (0.0, -1.0, True, "0.0"),
            (-0.0, -1.0, True, "0.0"),
            (-0.0, None, False, "0.0"),
            (5e-324, 0.0, False, "5e-324"),
            (5e-324, 0.0, True, "5e-324"),
            (1.5, 1.5, False, "1.5"),
            (1.5, 1.5, True, "x must be > 1.5, got 1.5"),
            (-1.0, 0.0, False, "x must be >= 0, got -1.0"),
            (-2.5, None, False, "-2.5"),
            (math.nan, 0.0, False, "x must be finite, got nan"),
            (math.nan, None, False, "x must be finite, got nan"),
            (math.inf, 0.0, False, "x must be finite, got inf"),
            (-math.inf, None, False, "x must be finite, got -inf"),
            (10**400, 0.0, False, "x must be finite, got an integer too large for a float"),
            (3, 0.0, True, "3.0"),
            (np.float64(2.5), 0.0, False, "2.5"),
            (np.float64(-1.0), 0.0, False, "x must be >= 0, got -1.0"),
            (np.float64(math.nan), None, False, "x must be finite, got nan"),
            (_FloatSubclass(1.5), 0.0, False, "1.5"),
            (_FloatSubclass(-1.5), 0.0, True, "x must be > 0, got -1.5"),
            (True, 0.0, False, "x must be a real number, got True"),
            ("1.0", 0.0, False, "x must be a real number, got '1.0'"),
            (Decimal("1.0"), 0.0, False, "x must be a real number, got Decimal('1.0')"),
            (Fraction(1, 2), 0.0, False, "x must be a real number, got Fraction(1, 2)"),
            (None, 0.0, False, "x must be a real number, got None"),
            (np.float64(-0.0), -1.0, False, "0.0"),
        ],
    )
    def test_result_or_message(self, value, low, strict, want):
        # want is the repr of the result, or the DomainError message
        try:
            got = _checked_value("x", value, low, strict)
        except DomainError as exc:
            assert str(exc) == want
        else:
            assert type(got) is float  # subclasses such as np.float64 come back plain
            assert repr(got) == want

    def test_plain_float_comes_back_as_itself(self):
        value = 2.5
        assert _checked_value("x", value, 0.0) is value
