"""Seeded sweeps: reproducibility, conditioning guarantees, CSV/JSON output."""

import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diamond_relay import (
    Conditioning,
    DomainError,
    ExponentialUnitMean,
    LogUniform,
    SweepConfig,
    iter_records,
    product_condition_holds,
    run_sweep,
    sample_instance,
    summarize,
    write_records_csv,
    write_summary_json,
)
from diamond_relay import experiments
from diamond_relay.experiments import _substream

CSV_HEADER = (
    "seed,index,g01,g02,g13,g23,c01,c02,c13,c23,c012,c123,"
    "r_sr,bound,gap,lemma_case,certified"
)


def small_config(**overrides):
    base = dict(n_samples=20, seed=12345)
    base.update(overrides)
    return SweepConfig(**base)


class TestDistributions:
    def test_exponential_inverse_cdf(self):
        d = ExponentialUnitMean()
        assert d.sample(0.0) == 0.0
        assert d.sample(1.0 - math.exp(-2.0)) == pytest.approx(2.0, rel=1e-12)

    def test_log_uniform_hits_bounds(self):
        d = LogUniform(0.1, 10.0)
        assert d.sample(0.0) == pytest.approx(0.1, rel=1e-12)
        assert d.sample(1.0) == pytest.approx(10.0, rel=1e-12)
        assert d.sample(0.5) == pytest.approx(1.0, rel=1e-12)

    @given(u=st.floats(min_value=0.0, max_value=1.0))
    def test_log_uniform_stays_in_range(self, u):
        d = LogUniform(0.25, 4.0)
        assert 0.25 * (1 - 1e-12) <= d.sample(u) <= 4.0 * (1 + 1e-12)

    def test_log_uniform_validation(self):
        for lo, hi in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0), (1.0, float("inf"))]:
            with pytest.raises(DomainError):
                LogUniform(lo, hi)

    def test_describe_round_trips_through_json(self):
        blob = json.dumps(LogUniform(0.5, 8.0).describe())
        assert json.loads(blob) == {"name": "log_uniform", "lo": 0.5, "hi": 8.0}


class TestSweepConfig:
    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            small_config(n_samples=0)

    def test_rejects_more_samples_than_substreams(self):
        # index 2^64 would need a Philox counter beyond 256 bits
        small_config(n_samples=2**64)
        with pytest.raises(DomainError, match=r"n_samples must be in \[1, 2\^64\]"):
            small_config(n_samples=2**64 + 1)

    def test_rejects_bool_samples(self):
        with pytest.raises(DomainError):
            small_config(n_samples=True)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError):
            small_config(seed=-1)

    def test_rejects_seed_beyond_64_bits(self):
        with pytest.raises(DomainError):
            small_config(seed=2**64)

    def test_rejects_non_integer_seed(self):
        for seed in (1.0, True, "1"):
            with pytest.raises(DomainError, match="seed must be an integer"):
                small_config(seed=seed)

    def test_rejects_foreign_distribution_and_conditioning(self):
        with pytest.raises(DomainError, match="gain_distribution"):
            small_config(gain_distribution="exponential")
        with pytest.raises(DomainError, match="conditioning must be a Conditioning"):
            small_config(conditioning="unconditioned")

    def test_rejects_zero_noise(self):
        for noise in [(1.0, 0.0, 1.0), (True, 1.0, 1.0), ("1", 1.0, 1.0)]:
            with pytest.raises(DomainError, match="noise"):
                small_config(noise=noise)

    def test_rejects_negative_power(self):
        # b"\x01\x01\x01" iterates as the ints 1, 1, 1
        for power in [
            (1.0, -1.0, 1.0), (True, 1.0, 1.0), ("1", 1.0, 1.0), (1.0, 1.0), b"\x01\x01\x01",
            1.0,
        ]:
            with pytest.raises(DomainError, match="power_budget"):
                small_config(power_budget=power)

    def test_product_conditioning_needs_relay_power(self):
        with pytest.raises(DomainError):
            small_config(
                conditioning=Conditioning.FORCE_PRODUCT_EQUAL,
                power_budget=(1.0, 1.0, 0.0),
            )

    def test_mirrored_conditioning_needs_matched_powers(self):
        with pytest.raises(DomainError):
            small_config(
                conditioning=Conditioning.FORCE_MIRRORED,
                power_budget=(1.0, 2.0, 1.0),
            )

    def test_mirrored_conditioning_needs_matched_noise(self):
        with pytest.raises(DomainError):
            small_config(
                conditioning=Conditioning.FORCE_MIRRORED,
                noise=(1.0, 1.0, 2.0),
            )


class TestSampling:
    def test_index_bounds_checked(self):
        config = small_config()
        with pytest.raises(DomainError):
            sample_instance(config, -1)
        with pytest.raises(DomainError):
            sample_instance(config, config.n_samples)
        with pytest.raises(DomainError, match="index must be an integer"):
            sample_instance(config, 1.0)

    def test_substreams_are_order_independent(self):
        """Each index owns its own counter block, so sampling index 7 alone
        gives the same instance as sampling it after 0..6."""
        config = small_config()
        alone = sample_instance(config, 7)
        in_order = [sample_instance(config, i) for i in range(config.n_samples)][7]
        assert alone == in_order

    def test_different_indices_differ(self):
        config = small_config()
        assert sample_instance(config, 0) != sample_instance(config, 1)

    def test_different_seeds_differ(self):
        a = sample_instance(small_config(seed=1), 0)
        b = sample_instance(small_config(seed=2), 0)
        assert a != b

    def test_power_and_noise_feed_through(self):
        config = small_config(power_budget=(4.0, 1.0, 1.0), noise=(2.0, 1.0, 1.0))
        spec = sample_instance(config, 3)
        assert spec.p_s == 4.0
        assert spec.sigma1_sq == 2.0

    def test_mirrored_instances_pair_up_exactly(self):
        config = small_config(conditioning=Conditioning.FORCE_MIRRORED)
        for record in iter_records(config):
            assert record.caps.c01 == record.caps.c23
            assert record.caps.c02 == record.caps.c13

    def test_forced_product_instances_satisfy_condition(self):
        config = small_config(conditioning=Conditioning.FORCE_PRODUCT_EQUAL)
        for record in iter_records(config):
            assert product_condition_holds(record.caps)
            assert record.certified

    def test_relay_power_that_underflows_c13_is_refused(self, monkeypatch):
        # c13 rounds to 0 on this seed's first draw: no c23 realizes the product
        monkeypatch.setattr(experiments, "_MAX_REJECTIONS", 10)
        config = SweepConfig(
            n_samples=1, seed=0, power_budget=(1.0, 5e-324, 1.0),
            conditioning=Conditioning.FORCE_PRODUCT_EQUAL,
        )
        with pytest.raises(DomainError, match="rejected every draw"):
            sample_instance(config, 0)


class TestPhiloxStream:
    """The pure-Python stream against numpy's Philox4x64-10, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 1, 499, 2**40 + 3])
    def test_matches_numpy_philox(self, seed, index):
        reference = np.random.Generator(np.random.Philox(key=seed, counter=index << 192))
        # 11 draws cross two 4-word block boundaries
        expected = [reference.random() for _ in range(11)]
        drawn = list(itertools.islice(_substream(seed, index), 11))
        assert [d.hex() for d in drawn] == [e.hex() for e in expected]


class TestRecordsAndSummary:
    def test_record_fields_are_consistent(self):
        records = list(iter_records(small_config()))
        assert [r.index for r in records] == list(range(20))
        for r in records:
            assert r.gap == pytest.approx(r.bound - r.r_sr, abs=1e-15)
            assert r.gap >= -1e-9

    def test_summary_counts(self):
        config = small_config(conditioning=Conditioning.FORCE_PRODUCT_EQUAL)
        records, summary = run_sweep(config)
        assert summary["n_samples"] == 20
        assert summary["certified_count"] == 20
        assert summary["certification_rate"] == 1.0
        assert summary["lemma_case_counts"]["product_equal"] == 20
        assert sum(summary["lemma_case_counts"].values()) == 20
        assert summary["conditioning"] == "force_product_equal"

    def test_summary_of_no_records_is_refused(self):
        with pytest.raises(DomainError, match="empty"):
            summarize(small_config(), [])

    def test_summary_gap_stats(self):
        records, summary = run_sweep(small_config())
        gaps = [r.gap for r in records]
        assert summary["gap_min"] == min(gaps)
        assert summary["gap_max"] == max(gaps)
        assert summary["gap_mean"] == pytest.approx(sum(gaps) / len(gaps), rel=1e-12)

    def test_summary_names_the_generator(self):
        _, summary = run_sweep(small_config())
        assert "philox" in summary["rng"]
        assert summary["seed"] == 12345


class TestSerialization:
    def test_csv_header_is_stable(self):
        buf = io.StringIO()
        config = small_config(n_samples=3)
        write_records_csv(config, list(iter_records(config)), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_csv_floats_round_trip(self):
        buf = io.StringIO()
        config = small_config(n_samples=5)
        records = list(iter_records(config))
        write_records_csv(config, records, buf)
        rows = buf.getvalue().splitlines()[1:]
        for row, record in zip(rows, records):
            fields = row.split(",")
            assert int(fields[0]) == config.seed
            assert int(fields[1]) == record.index
            assert float(fields[6]) == record.caps.c01
            assert float(fields[13]) == record.bound
            assert fields[15] == record.lemma_case.value
            assert fields[16] in ("true", "false")

    def test_sweep_is_byte_identical_across_runs(self):
        config = small_config(n_samples=10, seed=987)
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            write_records_csv(config, list(iter_records(config)), buf)
            outs.append(buf.getvalue().encode())
        assert outs[0] == outs[1]

    def test_summary_json_is_sorted_and_parseable(self):
        _, summary = run_sweep(small_config(n_samples=4))
        buf = io.StringIO()
        write_summary_json(summary, buf)
        text = buf.getvalue()
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert text.endswith("\n")
