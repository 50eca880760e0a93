"""Repeat the benchmark over seeds and write a ledger entry.

Run from the repository root:

    python3 bench/ledger.py --runs 10 --out bench/ledger/BENCH_0.json

For every workload in BENCHMARK.json this runs `bench/run.py` untraced once
per seed (seeds 1 .. runs, workloads interleaved) and traced once, each in
its own process. For each end-to-end metric it reports the median, the
quartiles (statistics.quantiles, n=4) and their spread as a share of the
median, next to the metric's bound. The entry also
holds the machine, the per-layer numbers of the traced run and the
failure counts. A later change quotes its numbers from a new entry written
by the same command on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict | None]:
    """(result object, machine record) of one benchmark process."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited with {proc.returncode}:\n{proc.stderr}")
    machine = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("machine ")), None
    )
    return json.loads(lines[-1]), machine


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="ledger file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    machines = []
    for seed in seeds:
        for workload in workloads:
            result, machine = run_once(spec, workload, seed, 0)
            results[workload].append(result)
            machines.append(machine)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    entry: dict[str, object] = {
        "machine": machines[0],
        "loadavg_at_start_per_run": [m["loadavg_at_start"] for m in machines if m],
        "run_seconds": spec["run_seconds"],
        "seeds": list(seeds),
        "workloads": {},
    }
    worst = 0.0
    for workload in workloads:
        runs = results[workload]
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = spread(values)
            stats.update(unit=metric["unit"], bound=metric["bound"], values=values)
            metrics[metric["name"]] = stats
            worst = max(worst, stats["spread"] / metric["bound"])
            print(f"{workload:<22} {metric['name']:<20} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.3f} of bound {metric['bound']}")
        traced, _ = run_once(spec, workload, seeds[0], 1)
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(entry, indent=2) + "\n")
    return 0 if all(w["correct"] for w in entry["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
