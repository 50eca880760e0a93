"""Benchmark of the diamond-relay package: sweeps, certify calls and CLI start-up.

Run from the repository root:

    python3 bench/run.py --workload sweep-unconditioned --seed 1 --seconds 50 --trace 0

The package is imported from ./src, never from an installed copy; without
src/diamond_relay the run exits with code 2 and prints no result.

Every run goes through the three ways the package is used, with the
workload's inputs, in rounds until --seconds have passed. One round is:

* small `diamond-relay sweep --output FILE` (cli.main) calls in fresh
  processes, giving records_per_s and setup_s;
* blocks of in-process certify_capacities calls over a seeded pool of
  capacity instances, one caller in a closed loop, giving certify_us_*;
* `diamond-relay certify --input <json>` processes over the same pool,
  spawned one after another, giving cli_certify_ms_*.

Before the first round, one large sweep process gives peak_rss_mb; it is
large so that memory which grows with the number of records shows.

Child processes run one at a time and this process waits for each, so
nothing else of the benchmark runs while one is measured. The workloads
differ only in the sweep's inputs. The pool is built the same way on both,
half product-equal and half unconditioned, so both certify outcomes and
both CLI exit codes occur everywhere, and a fixed cost per certify call
shows on both.

Other tenants of a shared machine slow every step, in-process or not, by
up to 2x, for spans of under a second to minutes, and how much of a run
falls in slow spans differs from run to run by more than the bounds allow.
So the run also times a fixed piece of pure-Python work that uses nothing
of the package (reference_ms) after every sweep process, certify block and
CLI process, and scales every time it reports by NOMINAL_REFERENCE_MS over
the median of those samples: a run on a machine running at 0.8 of its usual
speed reports what the same run would have measured at its usual speed.
The readable report gives each value as measured next to it. The
reference cannot move with the package, so a change to the package moves
the scaled figures as much as the measured ones.

Rounds spread every metric over the whole run, and each central value is
taken over all of the run's samples: records_per_s is all small sweeps'
records over their total sweep time, setup_s the median over the sweep
processes, certify_us_p50 the median over every call and
cli_certify_ms_p50 over every process. Tails are taken where enough samples
lie beyond them: certify_us_p99 within each round's calls, reporting the
median over the rounds, so that a slow stretch spoils a few rounds and not
the figure; cli_certify_ms_p75 over every process of the run.

Each operation is checked (see checks.py); `failed` counts those that
raised, exited with the wrong code or gave a wrong answer, out of
`attempted`, and error_rate is their ratio. With --trace 1 the sweeps and
the CLI certify calls run in this process with spans around the calls into
each module (tracing.py), and the result carries the per-layer metrics
instead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Iterator

from tracing import SpanStats, Tracer, percentile, write_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 0

# what the `diamond-relay` console script runs
ENTRY_POINT = "import sys\nfrom diamond_relay.cli import main\nsys.exit(main())"

CHILD_TIMEOUT_S = 120

# The reference: a fixed piece of pure-Python work that uses nothing of the
# package, timed between the measured steps. Its median over a run tracks how
# fast the machine ran during that run; NOMINAL_REFERENCE_MS is its median on
# the 2-vCPU machine of bench/ledger/BENCH_0.json, so scaled times read as
# times on that machine at its usual speed.
REFERENCE_LOOPS = 20_000
NOMINAL_REFERENCE_MS = 9.0


def reference_ms() -> float:
    """Wall time of the reference work, in milliseconds."""
    start = time.perf_counter_ns()
    # int keys: str hashes change with each process's hash seed, and so would its dict's speed
    table: dict[int, int] = {}
    for i in range(REFERENCE_LOOPS):
        key = i & 255
        table[key] = table.get(key, 0) + (i * i) % 7 + len(str(i))
    sorted(table.items())
    return (time.perf_counter_ns() - start) / 1e6


@dataclasses.dataclass(frozen=True)
class Workload:
    """Sweep inputs; why each workload exists is stated in BENCHMARK.json."""

    name: str
    conditioning: str  # `sweep --conditioning`
    distribution: str  # `sweep --distribution`


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-unconditioned", "unconditioned", "exponential"),
        Workload("sweep-forced-product", "force-product-equal", "log-uniform:0.1,10"),
    )
}


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Work per round, and the least number of rounds whatever --seconds allows.

    A round's 2000 certify calls have twenty beyond their p99, and four
    rounds' 40 CLI processes have ten beyond their p75.
    """

    min_rounds: int = 4
    traced_rounds: int = 20
    rss_n: int = 10_000  # records in the large sweep
    sweeps: int = 3
    sweep_n: int = 500  # records in each small sweep
    certify_blocks: int = 4  # with a reference sample after each
    certify_block: int = 500
    cli_processes: int = 10
    import_probes: int = 5
    pool_size: int = 64
    checked_rows: int = 40  # rows of each sweep CSV re-derived
    golden_n: int = 200


END_TO_END = {
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "certify_us_p50": "us",
    "certify_us_p99": "us",
    "cli_certify_ms_p50": "ms",
    "cli_certify_ms_p75": "ms",
}

PER_LAYER = {
    "experiments.sample_instance.us_p50": "us",
    "experiments.sample_instance.us_p99": "us",
    "experiments.sample_instance.share": "fraction",
    "experiments.sample_instance.calls": "count",
    "experiments.write_records_csv.us_per_record": "us",
    "experiments.write_records_csv.calls": "count",
    "experiments.summarize.us_per_record": "us",
    "experiments.summarize.calls": "count",
    "experiments.csv_bytes_per_record": "B",
    "channel_model.derive_capacities.us_p50": "us",
    "channel_model.derive_capacities.share": "fraction",
    "channel_model.derive_capacities.calls": "count",
    "sr_rate.sr_rate_min_form.us_p50": "us",
    "sr_rate.sr_rate_min_form.share": "fraction",
    "sr_rate.sr_rate_min_form.calls": "count",
    "cutset_lp.solve_bound.us_p50": "us",
    "cutset_lp.solve_bound.us_p99": "us",
    "cutset_lp.solve_bound.share": "fraction",
    "cutset_lp.solve_bound.calls": "count",
    "cutset_lp.all_cuts_binding_fraction": "fraction",
    "optimality.certify_capacities.us_p50": "us",
    "optimality.certify_capacities.calls": "count",
    "optimality.classify.us_p50": "us",
    "optimality.classify.calls": "count",
    "optimality.t_star.us_p50": "us",
    "optimality.t_star.calls": "count",
    "optimality.self_us_p50": "us",
    "optimality.product_equal_fraction": "fraction",
    "cli.import_ms": "ms",
    "cli.main_certify_us_p50": "us",
    "cli.main.calls": "count",
    "trace_overhead_fraction": "fraction",
}


@dataclasses.dataclass
class PoolItem:
    caps: object
    product_equal: bool
    input_json: str
    reference: object = None  # the OptimalityReport every call must reproduce
    ok: bool = False  # reference passed checks.reference_ok


def build_pool(dr, checks, seed: int, size: int) -> list[PoolItem]:
    """Half product-equal, half unconditioned capacity instances, from the seed."""
    rng = random.Random(seed)
    lo, hi = math.log(0.05), math.log(6.0)
    pool: list[PoolItem] = []
    while len(pool) < size:
        c01, c02, c13, c23 = (math.exp(rng.uniform(lo, hi)) for _ in range(4))
        product_equal = len(pool) % 2 == 0
        if product_equal:
            c23 = c01 * c02 / c13
            if not 0.01 <= c23 <= 20.0:
                continue
        text = json.dumps({"c01": c01, "c02": c02, "c13": c13, "c23": c23})
        item = PoolItem(dr.induced_capacities(c01, c02, c13, c23), product_equal, text)
        try:
            item.reference = dr.certify_capacities(item.caps)
            item.ok = checks.reference_ok(item.caps, item.reference, product_equal)
        except Exception:
            traceback.print_exc()
        pool.append(item)
    return pool


class Run:
    """Inputs, counters and checks of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, seconds: float, sizes: Sizes, workdir: Path):
        import diamond_relay
        from diamond_relay import cli

        import checks

        self.dr = diamond_relay
        self.cli = cli
        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.pool = build_pool(self.dr, checks, seed, sizes.pool_size)
        self.items = itertools.cycle(self.pool)
        self.first_digest: dict[int, str] = {}  # by number of records
        self.reference: list[float] = []  # reference_ms samples between timed steps
        self.start = time.perf_counter()

    def sweep_argv(self, n: int, seed: int, output: Path) -> list[str]:
        w = self.workload
        return [
            "sweep", "--n", str(n), "--seed", str(seed),
            "--conditioning", w.conditioning, "--distribution", w.distribution,
            "--output", str(output),
        ]

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            print(f"failed {count}: {why}", file=sys.stderr)

    def rounds(self) -> Iterator[int]:
        """Round numbers until min_rounds are done and --seconds have passed."""
        deadline = self.start + self.seconds
        for r in itertools.count():
            if r >= self.sizes.min_rounds and time.perf_counter() >= deadline:
                return
            yield r

    def spawn(self, argv: list[str]):
        """Run one child to completion; (process, wall seconds), or None on timeout."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        return proc, time.perf_counter() - start

    # -- checks shared by both modes ------------------------------------

    def check_golden(self) -> None:
        """Pinned bytes of the default seed's first golden_n records."""
        n = self.sizes.golden_n
        pinned = json.loads(GOLDEN.read_text())[self.workload.name][str(n)]
        path = self.workdir / "golden.csv"
        self.attempted += n
        code = self.cli.main(self.sweep_argv(n, DEFAULT_SEED, path))
        if code != 0 or self.checks.sha256(path) != pinned:
            self.fail(n, f"sweep of the default seed (n = {n}) does not match golden.json")

    def check_sweep(self, csv_path: Path, n: int) -> None:
        """Same bytes as the run's first sweep of n records, whose rows are re-derived."""
        digest = self.checks.sha256(csv_path)
        if n not in self.first_digest:
            self.first_digest[n] = digest
            stride = max(1, n // self.sizes.checked_rows)
            config = self.checks.sweep_config(n, self.seed, self.workload.conditioning,
                                              self.workload.distribution)
            self.fail(self.checks.check_rows(config, csv_path, stride),
                      "sweep rows differ from their re-derivation")
            pinned = json.loads(GOLDEN.read_text())[self.workload.name].get(str(n))
            if self.seed == DEFAULT_SEED and pinned is not None and digest != pinned:
                self.fail(n, "sweep of the default seed does not match golden.json")
        elif digest != self.first_digest[n]:
            self.fail(n, "a rerun of the same sweep wrote different bytes")
            return
        all_certified = self.workload.conditioning == "force-product-equal"
        self.fail(self.checks.check_summary(csv_path.with_suffix(".summary.json"), n, all_certified),
                  "sweep summary breaks an invariant")

    def certify_block(self) -> list[float]:
        """certify_block calls in a closed loop; latency of each in microseconds."""
        latencies = []
        for _ in range(self.sizes.certify_block):
            item = next(self.items)
            self.attempted += 1
            start = time.perf_counter_ns()
            try:
                report = self.dr.certify_capacities(item.caps)
            except Exception:
                traceback.print_exc()
                self.fail(1, "certify_capacities raised")
                continue
            latencies.append((time.perf_counter_ns() - start) / 1e3)
            if not (item.ok and self.checks.same_answer(report, item.reference)):
                self.fail(1, "certify_capacities gave a wrong answer")
        return latencies

    # -- untraced run ----------------------------------------------------

    def sweep_process(self, path: Path, n: int) -> dict | None:
        """One checked `diamond-relay sweep` process; its child.py report."""
        self.attempted += n
        result = self.spawn([sys.executable, str(BENCH_DIR / "child.py"),
                             *self.sweep_argv(n, self.seed, path)])
        if result is None:
            self.fail(n, "sweep process timed out")
            return None
        proc, _ = result
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            report = {}
        if proc.returncode != 0 or report.get("exit") != 0 or not path.exists():
            self.fail(n, f"sweep process exited with {proc.returncode}: {proc.stderr[-300:]!r}")
            return None
        self.check_sweep(path, n)
        path.unlink()
        path.with_suffix(".summary.json").unlink(missing_ok=True)
        return report

    def cli_processes(self) -> list[float]:
        """cli_processes `diamond-relay certify` processes; wall time of each in ms."""
        times = []
        for _ in range(self.sizes.cli_processes):
            item = next(self.items)
            self.attempted += 1
            result = self.spawn([sys.executable, "-c", ENTRY_POINT, "certify", "--input", item.input_json])
            if result is None:
                self.fail(1, "certify process timed out")
                continue
            proc, wall = result
            times.append(wall * 1e3)
            self.reference.append(reference_ms())
            if not (item.ok and self.checks.cli_answer_ok(proc.returncode, proc.stdout, item.reference)):
                self.fail(1, f"certify process answered wrong (exit {proc.returncode})")
        return times

    def measure(self) -> dict[str, tuple[float, str]]:
        sweeps, certify_rounds, cli_ms = [], [], []
        large = self.sweep_process(self.workdir / "large.csv", self.sizes.rss_n)
        for r in self.rounds():
            for k in range(self.sizes.sweeps):
                report = self.sweep_process(self.workdir / f"sweep{r}-{k}.csv", self.sizes.sweep_n)
                if report is not None:
                    sweeps.append(report)
                self.reference.append(reference_ms())
            calls = []
            for _ in range(self.sizes.certify_blocks):
                calls += self.certify_block()
                self.reference.append(reference_ms())
            certify_rounds.append(calls)
            cli_ms += self.cli_processes()

        reference = statistics.median(self.reference)
        scale = NOMINAL_REFERENCE_MS / reference  # below 1 when this run's machine was slow
        print(f"reference_ms median {reference:.6g} of {len(self.reference)} samples, "
              f"so measured times are scaled by {scale:.6g}")

        def scaled(raw: float, note: str, rate: bool = False) -> tuple[float, str]:
            return (raw / scale if rate else raw * scale), f"{note}; {raw:.6g} as measured"

        n = self.sizes.sweep_n
        values = {}
        if large is not None:
            values["peak_rss_mb"] = (large["peak_rss_kb"] / 1024, f"one sweep process, n = {self.sizes.rss_n}")
        if sweeps:
            note = f"{len(sweeps)} sweep processes, n = {n}"
            values["records_per_s"] = scaled(
                n * len(sweeps) / sum(s["sweep_s"] for s in sweeps), f"all records / all sweep time of {note}",
                rate=True)
            values["setup_s"] = scaled(statistics.median(s["setup_s"] for s in sweeps), f"median of {note}")
        certify_rounds = [calls for calls in certify_rounds if calls]
        if certify_rounds:
            calls = [x for r in certify_rounds for x in r]
            values["certify_us_p50"] = scaled(statistics.median(calls), f"over {len(calls)} calls")
            values["certify_us_p99"] = scaled(
                statistics.median(percentile(r, 0.99) for r in certify_rounds),
                f"median over {len(certify_rounds)} rounds, {len(calls)} calls")
        if cli_ms:
            note = f"over {len(cli_ms)} processes"
            values["cli_certify_ms_p50"] = scaled(statistics.median(cli_ms), note)
            values["cli_certify_ms_p75"] = scaled(percentile(cli_ms, 0.75), note)
        return values

    # -- traced run ------------------------------------------------------

    def trace(self) -> dict[str, tuple[float, str]]:
        """traced_rounds rounds in this process, with spans kept in memory.

        A round is one sweep untraced and then traced, both through cli.main,
        and cli_processes `certify` calls to cli.main over the pool.
        """
        dr, cli = self.dr, self.cli
        experiments = sys.modules["diamond_relay.experiments"]
        optimality = sys.modules["diamond_relay.optimality"]
        tracer = Tracer()
        ids = itertools.count()

        def is_product_equal(report) -> bool:
            return report.lemma_case is dr.LemmaCase.PRODUCT_EQUAL

        inner = [
            (optimality, "sr_rate_min_form", {}),
            (optimality, "solve_bound", {"flag": lambda s: len(s.binding) == 4}),
            (optimality, "classify", {}),
            (optimality, "t_star", {}),
        ]
        whole_sweep = {"record": lambda *args: ("run", 0)}
        sweep_targets = inner + [
            (experiments, "sample_instance", {"record": lambda config, index: ("sweep", next(ids))}),
            (experiments, "derive_capacities", {}),
            (experiments, "certify_capacities", {"flag": is_product_equal}),
            (cli, "summarize", whole_sweep),
            (cli, "write_records_csv", whole_sweep),
        ]
        main = tracer.wrap("cli.main", cli.main, record=lambda argv: ("cli", next(ids)))

        n = self.sizes.sweep_n
        path = self.workdir / "traced.csv"
        out = self.workdir / "certify.json"
        overheads, csv_bytes = [], []
        for _ in range(self.sizes.traced_rounds):
            # the same in-process sweep untraced, then traced
            elapsed_s = []
            for traced in (False, True):
                self.attempted += n
                with tracer.patched(sweep_targets if traced else []):
                    start = time.perf_counter()
                    code = cli.main(self.sweep_argv(n, self.seed, path))
                    elapsed = time.perf_counter() - start
                if code != 0:
                    self.fail(n, f"in-process sweep exited with {code}")
                    continue
                self.check_sweep(path, n)
                elapsed_s.append(elapsed)
                csv_bytes.append(path.stat().st_size)
            if len(elapsed_s) == 2:
                overheads.append(elapsed_s[1] / elapsed_s[0] - 1.0)
            for _ in range(self.sizes.cli_processes):
                item = next(self.items)
                self.attempted += 1
                out.unlink(missing_ok=True)
                code = main(["certify", "--input", item.input_json, "--output", str(out)])
                answer = out.read_bytes() if out.exists() else b""
                if not (item.ok and self.checks.cli_answer_ok(code, answer, item.reference)):
                    self.fail(1, f"cli.main certify answered wrong (exit {code})")
        import_ms = []
        for _ in range(self.sizes.import_probes):
            result = self.spawn([sys.executable, str(BENCH_DIR / "child.py"), "import"])
            if result is not None and result[0].returncode == 0:
                import_ms.append(json.loads(result[0].stdout.splitlines()[-1])["import_s"] * 1e3)

        OUT_DIR.mkdir(exist_ok=True)
        write_spans(tracer.spans, OUT_DIR / f"trace-{self.workload.name}.jsonl")
        # the layers' figures describe the workload's sweep records; CSV
        # writing and summarize run once per sweep, cli.main once per call
        stats = SpanStats(tracer.spans, kinds=("sweep",))
        by_span = {
            "experiments.write_records_csv": SpanStats(tracer.spans, kinds=("run",)),
            "experiments.summarize": SpanStats(tracer.spans, kinds=("run",)),
            "cli.main": SpanStats(tracer.spans, kinds=("cli",)),
        }
        values: dict[str, tuple[float, str]] = {}
        for name in PER_LAYER:
            if name.endswith(".calls"):
                span = name[: -len(".calls")]
                values[name] = (by_span.get(span, stats).calls(span), "spans")
        for name in ("experiments.sample_instance", "channel_model.derive_capacities",
                     "sr_rate.sr_rate_min_form", "cutset_lp.solve_bound",
                     "optimality.certify_capacities", "optimality.classify", "optimality.t_star"):
            durations = stats.durations_us(name)
            note = f"{len(durations)} spans"
            values[f"{name}.us_p50"] = (percentile(durations, 0.5), note)
            if f"{name}.us_p99" in PER_LAYER:
                values[f"{name}.us_p99"] = (percentile(durations, 0.99), note)
            if f"{name}.share" in PER_LAYER:
                values[f"{name}.share"] = (stats.share(name), "of traced sweep-record time")
        records = n * len(overheads)
        for name in ("experiments.write_records_csv", "experiments.summarize"):
            values[f"{name}.us_per_record"] = (
                sum(by_span[name].durations_us(name)) / records if records else 0.0,
                f"{records} records")
        values["experiments.csv_bytes_per_record"] = (
            statistics.median(csv_bytes) / n if csv_bytes else 0.0, "file size / n")
        values["cutset_lp.all_cuts_binding_fraction"] = (
            stats.flag_fraction("cutset_lp.solve_bound"), "of sweep records")
        self_us = stats.layer_self_us("optimality.certify_capacities")
        values["optimality.self_us_p50"] = (
            percentile(self_us, 0.5), f"{len(self_us)} spans, less sr_rate and cutset_lp time")
        values["optimality.product_equal_fraction"] = (
            stats.flag_fraction("optimality.certify_capacities"), "of sweep records")
        values["cli.import_ms"] = (
            statistics.median(import_ms) if import_ms else 0.0, f"median of {len(import_ms)} processes")
        main_us = by_span["cli.main"].durations_us("cli.main")
        values["cli.main_certify_us_p50"] = (percentile(main_us, 0.5), f"{len(main_us)} spans")
        values["trace_overhead_fraction"] = (
            statistics.median(overheads) if overheads else 0.0,
            f"median over {len(overheads)} pairs of in-process sweeps, traced vs untraced")
        return values


def machine(seed: int) -> dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "vcpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "loadavg_at_start": os.getloadavg(),
        "commit": commit,
        "seed": seed,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> dict:
    """One benchmark run; returns the result object and prints a readable report."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        print("machine", json.dumps(machine(seed)))
        bench = Run(workload, seed, seconds, sizes, workdir)
        bench.check_golden()
        values = bench.trace() if trace else bench.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    print(f"workload {workload.name}, seed {seed}, {'traced' if trace else 'untraced'}")
    for name in (n for n in units if n in values):
        value, note = values[name]
        print(f"  {name:<46} {value:>14.6g} {units[name]:<8} {note}")
    rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'error_rate':<46} {rate:>14.6g} {'fraction':<8} "
          f"{bench.failed} failed of {bench.attempted} attempted")
    missing = [name for name in units if name not in values]
    if missing:
        print(f"no samples for {', '.join(missing)}", file=sys.stderr)
    return {
        "correct": bench.failed == 0 and not missing,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units if name in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diamond_relay" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diamond_relay

    if Path(diamond_relay.__file__).resolve().parent != (SRC / "diamond_relay").resolve():
        print(f"error: diamond_relay was imported from {diamond_relay.__file__}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
