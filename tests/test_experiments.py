"""Seeded sweeps: reproducibility, conditioning guarantees, CSV/JSON output."""

import csv
import errno
import io
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diamond_relay import (
    ChannelSpec,
    Conditioning,
    DomainError,
    ExponentialUnitMean,
    LemmaCase,
    LinkCapacities,
    LogUniform,
    SweepConfig,
    SweepRecord,
    certify_capacities,
    derive_capacities,
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

    def test_links_whose_products_underflow_are_evaluated(self):
        # every capacity is near 1e-170, so both plain capacity products are 0.0
        records, summary = run_sweep(small_config(n_samples=200, seed=1,
                                                  power_budget=(1e-170,) * 3))
        assert max(r.caps.c01 for r in records) < 1e-168
        assert summary["lemma_case_counts"]["none"] == 200

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

    def test_interleaved_seeds_match_numpy_philox(self):
        # seed a, then b, then a again, over more seeds than the key cache
        # holds, then every seed once more after it was evicted; all streams
        # are open at once and drawn from in turn
        n_seeds = 3 * experiments._round_keys.cache_info().maxsize
        seeds = [(2**61 - 1) * k % 2**64 for k in range(1, n_seeds + 1)]
        order = [seed for a, b in zip(seeds, seeds[1:]) for seed in (a, b, a)] + seeds
        streams = [_substream(seed, index) for index, seed in enumerate(order)]
        drawn = [[] for _ in order]
        for _ in range(6):  # crosses a 4-word block boundary
            for stream, out in zip(streams, drawn):
                out.append(next(stream).hex())
        for index, (seed, out) in enumerate(zip(order, drawn)):
            reference = np.random.Generator(np.random.Philox(key=seed, counter=index << 192))
            assert out == [reference.random().hex() for _ in range(6)], (seed, index)


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

    def test_summary_relative_gap_stats(self):
        # at unit powers every bound is far above the floor, so every record counts
        records, summary = run_sweep(small_config())
        relative = [r.gap / r.bound for r in records]
        assert summary["relative_gap"]["n"] == len(records) == 20
        assert summary["relative_gap"]["min"] == min(relative)
        assert summary["relative_gap"]["max"] == max(relative)
        assert summary["relative_gap"]["mean"] == pytest.approx(
            sum(relative) / len(relative), rel=1e-12
        )

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="relative gaps are averaged only where bound > 1e-6, a floor in the unit of "
        "capacity: at powers of 1e-7 every bound is positive and relative_gap is null "
        "(ROADMAP direction 1)",
    )
    def test_relative_gap_counts_every_positive_bound(self):
        config = SweepConfig(n_samples=200, seed=1, power_budget=(1e-7,) * 3)
        records, summary = run_sweep(config)
        assert min(r.bound for r in records) > 0  # the least is 5.2e-9
        assert summary["relative_gap"] is not None
        assert summary["relative_gap"]["n"] == 200

    def test_summary_names_the_generator(self):
        _, summary = run_sweep(small_config())
        assert "philox" in summary["rng"]
        assert summary["seed"] == 12345


class TestPatchPoints:
    """A sweep reaches its layers through experiments' module globals, where a
    caller may wrap them (the benchmark's spans do), once per record."""

    def test_each_layer_runs_once_per_record(self, monkeypatch):
        # 50 records are one block, so nothing is forked and every call is seen here
        calls = {}
        for name in ("sample_instance", "derive_capacities", "certify_capacities"):
            def counted(*args, _name=name, _layer=getattr(experiments, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _layer(*args)

            monkeypatch.setattr(experiments, name, counted)
        records, _ = run_sweep(small_config(n_samples=50))
        assert len(records) == 50
        assert calls == {"sample_instance": 50, "derive_capacities": 50, "certify_capacities": 50}


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
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            text = {
                "seed": str(config.seed),
                "index": str(record.index),
                "lemma_case": record.lemma_case.value,
                "certified": "true" if record.certified else "false",
            }
            for name, cell in zip(CSV_HEADER.split(","), row.split(","), strict=True):
                if name in text:
                    assert cell == text[name], name
                    continue
                # the record's float fields, then its gains, then its capacities
                owner = next(o for o in (record, record.spec, record.caps) if hasattr(o, name))
                assert float(cell) == getattr(owner, name), name

    def test_csv_matches_csv_writer_on_extreme_values(self):
        # values no seeded sweep draws: zeros, the extreme doubles, a
        # negative gap, every lemma case and both verdicts
        tiny, huge = 5e-324, 1.7976931348623157e308
        config = small_config(seed=2**64 - 1)
        spec = ChannelSpec(0.0, tiny, huge, 1.0, 1.0, tiny, huge, 0.0, huge, tiny)
        caps = LinkCapacities(tiny, 0.0, huge, 0.0, tiny, huge)
        records = [
            SweepRecord(2**64 - 1 - i, spec, caps, r_sr, bound, gap, case, certified)
            for i, (case, certified) in enumerate(itertools.product(LemmaCase, (True, False)))
            for r_sr, bound, gap in [(huge, tiny, -huge), (0.0, 0.0, -tiny), (1 / 3, 0.5, -1e-9)]
        ]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            values = [*(getattr(r.spec, name) for name in ("g01", "g02", "g13", "g23")),
                      *r.caps.to_dict().values(), r.r_sr, r.bound, r.gap]
            writer.writerow([config.seed, r.index, *(format(v, ".17g") for v in values),
                             r.lemma_case.value, "true" if r.certified else "false"])
        buf = io.StringIO()
        write_records_csv(config, records, buf)
        assert buf.getvalue() == expected.getvalue()

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


BLOCK = experiments._BLOCK


def use_cpus(monkeypatch, count):
    """Make iter_records see `count` usable CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def plain_records(config):
    """The per-index loop that iter_records shards."""
    records = []
    for index in range(config.n_samples):
        spec = sample_instance(config, index)
        caps = derive_capacities(spec)
        report = certify_capacities(caps)
        records.append(SweepRecord(index, spec, caps, report.r_sr, report.bound, report.gap,
                                   report.lemma_case, report.capacity_certified))
    return records


def csv_and_summary(config, records):
    rows, summary = io.StringIO(), io.StringIO()
    write_records_csv(config, records, rows)
    write_summary_json(summarize(config, records), summary)
    return rows.getvalue(), summary.getvalue()


def failing_at(monkeypatch, bad, error):
    """Patch the sampler to raise error(f"no record {bad}") at index bad, in
    this process and in every worker forked after the patch."""
    original = experiments.sample_instance

    def sample(config, index):
        if index == bad:
            raise error(f"no record {index}")
        return original(config, index)

    monkeypatch.setattr(experiments, "sample_instance", sample)


def recording_indices(monkeypatch):
    """Patch the sampler to append each index it is called with to the list
    returned, in this process; a forked worker appends to its own copy."""
    original, seen = experiments.sample_instance, []

    def sample(config, index):
        seen.append(index)
        return original(config, index)

    monkeypatch.setattr(experiments, "sample_instance", sample)
    return seen


class NoPickle(Exception):
    """An error that pickles but cannot be rebuilt from its pickle."""

    def __init__(self, message, code):
        super().__init__(message)


class TestShardedRecords:
    """iter_records deals blocks of BLOCK indices round-robin to this process
    and to forked workers and yields records in index order."""

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("conditioning", list(Conditioning), ids=lambda c: c.value)
    def test_bytes_match_a_plain_loop(self, monkeypatch, conditioning, n):
        config = small_config(n_samples=n, conditioning=conditioning)
        expected = csv_and_summary(config, plain_records(config))
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            assert csv_and_summary(config, list(iter_records(config))) == expected, cpus
            assert_no_child()

    @pytest.mark.parametrize("cpus, mine", [
        (2, [*range(BLOCK), *range(2 * BLOCK, 3 * BLOCK)]),
        (3, [*range(BLOCK), *range(3 * BLOCK, 3 * BLOCK + 7)]),
    ])
    def test_blocks_are_dealt_round_robin(self, monkeypatch, cpus, mine):
        # workers call the sampler through the module global as this process
        # does, so a patch reaches them, but what they append stays with them
        seen = recording_indices(monkeypatch)
        use_cpus(monkeypatch, cpus)
        config = small_config(n_samples=3 * BLOCK + 7)
        assert [r.index for r in iter_records(config)] == list(range(3 * BLOCK + 7))
        assert seen == mine
        assert_no_child()

    def test_processes_are_capped(self, monkeypatch):
        cap = experiments._MAX_PROCESSES
        seen = recording_indices(monkeypatch)
        use_cpus(monkeypatch, 4 * cap)
        config = small_config(n_samples=(cap + 1) * BLOCK)
        assert [r.index for r in iter_records(config)] == list(range((cap + 1) * BLOCK))
        assert seen == [*range(BLOCK), *range(cap * BLOCK, (cap + 1) * BLOCK)]
        assert_no_child()

    def test_another_thread_keeps_the_sweep_in_this_process(self, monkeypatch):
        # a forked worker has only the forking thread, and a lock that another
        # thread held at the fork stays held there forever
        seen = recording_indices(monkeypatch)
        use_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            records = list(iter_records(small_config(n_samples=2 * BLOCK)))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert [r.index for r in records] == seen == list(range(2 * BLOCK))
        assert_no_child()

    @pytest.mark.parametrize("error", [DomainError, ZeroDivisionError])
    @pytest.mark.parametrize("bad", [BLOCK + 10, 2 * BLOCK], ids=["worker_block", "own_block"])
    def test_error_comes_after_exactly_the_records_before_it(self, monkeypatch, bad, error):
        failing_at(monkeypatch, bad, error)
        use_cpus(monkeypatch, 2)
        indices = []
        with pytest.raises(error, match=f"^no record {bad}$"):
            for record in iter_records(small_config(n_samples=3 * BLOCK + 7)):
                indices.append(record.index)
        assert indices == list(range(bad))
        assert_no_child()

    @pytest.mark.parametrize("worker_fails", [True, False])
    def test_work_ahead_keeps_errors_in_index_order(self, monkeypatch, worker_fails):
        # this process evaluates its next block (2) before it reads the
        # worker's block 1; block 2 fails, and its error must wait for
        # block 1, which may fail first
        parent, original, events = os.getpid(), experiments.sample_instance, []

        def sample(config, index):
            if os.getpid() != parent:
                if worker_fails and index == BLOCK + 5:
                    raise DomainError(f"no record {index}")
            else:
                events.append(("evaluated", index))
                if index == 2 * BLOCK + 3:
                    raise DomainError(f"no record {index}")
            return original(config, index)

        monkeypatch.setattr(experiments, "sample_instance", sample)
        use_cpus(monkeypatch, 2)
        bad = BLOCK + 5 if worker_fails else 2 * BLOCK + 3
        indices = []
        with pytest.raises(DomainError, match=f"^no record {bad}$"):
            for record in iter_records(small_config(n_samples=4 * BLOCK)):
                indices.append(record.index)
                events.append(("yielded", record.index))
        assert indices == list(range(bad))
        assert events.index(("evaluated", 2 * BLOCK)) < events.index(("yielded", BLOCK))
        assert ("evaluated", 2 * BLOCK + 3) in events
        assert_no_child()

    def test_worker_error_that_cannot_be_rebuilt_keeps_its_name(self, monkeypatch):
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(NoPickle("no record", 3)))
        failing_at(monkeypatch, BLOCK, lambda message: NoPickle(message, 3))
        use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=f"^NoPickle: no record {BLOCK}$"):
            list(iter_records(small_config(n_samples=2 * BLOCK)))
        assert_no_child()

    def test_a_worker_that_dies_is_reported(self, monkeypatch):
        parent, original = os.getpid(), experiments.sample_instance

        def sample(config, index):
            if index == BLOCK + 1 and os.getpid() != parent:
                os._exit(3)
            return original(config, index)

        monkeypatch.setattr(experiments, "sample_instance", sample)
        use_cpus(monkeypatch, 2)
        records = iter_records(small_config(n_samples=3 * BLOCK))
        with pytest.raises(ChildProcessError, match=f"records {BLOCK}..{2 * BLOCK - 1}"):
            for record in records:
                assert record.index < BLOCK
        assert_no_child()

    def test_a_worker_message_cut_short_is_reported(self, monkeypatch):
        parent, original = os.getpid(), pickle.dumps

        def dumps(obj, protocol):  # the worker sends half of each message
            message = original(obj, protocol)
            return message if os.getpid() == parent else message[:len(message) // 2]

        # half a block's message is truncated data, not an end of input
        block = (plain_records(small_config(n_samples=BLOCK)), None)
        message = original(block, pickle.HIGHEST_PROTOCOL)
        with pytest.raises(pickle.UnpicklingError):
            pickle.loads(message[:len(message) // 2])
        monkeypatch.setattr(pickle, "dumps", dumps)
        use_cpus(monkeypatch, 2)
        records = iter_records(small_config(n_samples=2 * BLOCK))
        with pytest.raises(ChildProcessError, match=f"records {BLOCK}..{2 * BLOCK - 1}"):
            for record in records:
                assert record.index < BLOCK
        assert_no_child()

    def test_a_failed_fork_leaks_no_descriptor(self, monkeypatch):
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        use_cpus(monkeypatch, 3)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="fork refused"):
            list(iter_records(small_config(n_samples=3 * BLOCK)))
        assert len(forks) == 2
        assert len(os.listdir("/proc/self/fd")) == before
        assert_no_child()

    def test_closing_early_leaves_no_child(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        records = iter_records(small_config(n_samples=3 * BLOCK + 7))
        assert [next(records).index for _ in range(3)] == [0, 1, 2]
        records.close()
        assert_no_child()

    def test_iterator_left_open_at_exit_is_closed_quietly(self):
        script = (
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from diamond_relay import SweepConfig, iter_records\n"
            f"records = iter_records(SweepConfig(n_samples={3 * BLOCK}, seed=1))\n"
            "next(records)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
