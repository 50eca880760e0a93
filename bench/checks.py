"""Correctness checks behind the benchmark's failure count.

Each check returns how many operations it found wrong; the caller adds that
to the run's failed count. Sweep rows are re-derived here from the public
pipeline (sample_instance -> derive_capacities -> certify_capacities) and
formatted by the CSV format the package documents, not by its writer, so a
writer that changes bytes is caught too.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import diamond_relay as dr

CSV_HEADER = (
    "seed,index,g01,g02,g13,g23,c01,c02,c13,c23,c012,c123,"
    "r_sr,bound,gap,lemma_case,certified"
)
GAP_FLOOR = -1e-9
REL_TOL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _g(value: float) -> str:
    return format(value, ".17g")


def sweep_config(n: int, seed: int, conditioning: str, distribution: str) -> dr.SweepConfig:
    """The config `diamond-relay sweep` builds from these arguments.

    conditioning is a --conditioning value; distribution is "exponential" or
    "log-uniform:LO,HI".
    """
    if distribution == "exponential":
        gains = dr.ExponentialUnitMean()
    else:
        lo, hi = distribution.split(":", 1)[1].split(",")
        gains = dr.LogUniform(float(lo), float(hi))
    return dr.SweepConfig(
        n_samples=n,
        seed=seed,
        gain_distribution=gains,
        conditioning=dr.Conditioning(conditioning.replace("-", "_")),
    )


def expected_row(config: dr.SweepConfig, index: int) -> str:
    spec = dr.sample_instance(config, index)
    caps = dr.derive_capacities(spec)
    report = dr.certify_capacities(caps)
    fields = [str(config.seed), str(index)]
    fields += [_g(v) for v in (spec.g01, spec.g02, spec.g13, spec.g23)]
    fields += [_g(v) for v in (caps.c01, caps.c02, caps.c13, caps.c23, caps.c012, caps.c123)]
    fields += [_g(report.r_sr), _g(report.bound), _g(report.gap)]
    fields += [report.lemma_case.value, "true" if report.capacity_certified else "false"]
    return ",".join(fields)


def check_rows(config: dr.SweepConfig, csv_path: Path, stride: int) -> int:
    """Rows at indices 0, stride, 2*stride, ... that differ from a re-derivation.

    A missing or misplaced header, or a wrong line count, fails every record.
    """
    lines = csv_path.read_bytes().decode("ascii", errors="replace").split("\n")
    if lines[0] != CSV_HEADER or len(lines) != config.n_samples + 2 or lines[-1] != "":
        return config.n_samples
    return sum(
        1
        for index in range(0, config.n_samples, stride)
        if lines[index + 1] != expected_row(config, index)
    )


def check_summary(summary_path: Path, n: int, all_certified: bool) -> int:
    """Records the summary shows as wrong; all n when it is unreadable or inconsistent."""
    try:
        summary = json.loads(summary_path.read_text())
    except (OSError, ValueError):
        return n
    if summary.get("n_samples") != n or not summary.get("gap_min", -math.inf) >= GAP_FLOOR:
        return n
    if all_certified and summary.get("certification_rate") != 1.0:
        return n - int(summary.get("certified_count", 0))
    return 0


def reference_ok(caps: dr.LinkCapacities, report: dr.OptimalityReport, product_equal: bool) -> bool:
    """The answer certify_capacities must give on one pool instance.

    Every instance: bound >= r_sr, and the cuts at the solver's schedule
    reproduce the bound. Product-equal instances: certified, with the bound
    equal to the predicted rate.
    """
    scale = max(1.0, abs(report.bound))
    if report.bound < report.r_sr - REL_TOL * scale:
        return False
    solution = dr.solve_bound(caps)
    if abs(min(dr.cut_values(caps, solution.t)) - report.bound) > REL_TOL * scale:
        return False
    if product_equal:
        predicted = report.predicted_rate
        return (
            report.capacity_certified
            and predicted is not None
            and abs(report.bound - predicted) <= REL_TOL * abs(predicted)
        )
    return True


def same_answer(report: dr.OptimalityReport, reference: dr.OptimalityReport) -> bool:
    return (
        report.bound == reference.bound
        and report.r_sr == reference.r_sr
        and report.capacity_certified == reference.capacity_certified
    )


def cli_answer_ok(
    returncode: int, stdout: bytes, reference: dr.OptimalityReport
) -> bool:
    """Exit code 0 for a certified instance and 1 otherwise, and the same numbers."""
    if returncode != (0 if reference.capacity_certified else 1):
        return False
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    return (
        payload.get("bound") == reference.bound
        and payload.get("r_sr") == reference.r_sr
        and payload.get("capacity_certified") == reference.capacity_certified
    )
