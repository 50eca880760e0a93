"""Smoke tests of the benchmark itself.

    python3 -m pytest -q bench

Each workload runs at smoke size, untraced and traced. The tests check that
every named metric is printed with its unit, that BENCHMARK.json lists the
same metrics and workloads as run.py, and that corrupted output counts as a
failure instead of passing.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import diamond_relay  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
from diamond_relay import cli  # noqa: E402

SMOKE = run.Sizes(
    min_rounds=1,
    traced_rounds=1,
    rss_n=100,
    sweeps=1,
    sweep_n=100,  # has pinned hashes, so the default seed also checks them
    certify_blocks=2,
    certify_block=20,
    cli_processes=3,
    import_probes=1,
    pool_size=8,
    checked_rows=10,
    golden_n=100,
)


def test_benchmark_json_matches_run_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    pinned = json.loads(run.GOLDEN.read_text())
    for workload in run.WORKLOADS.values():
        sizes = {SMOKE.golden_n, SMOKE.rss_n, run.Sizes().golden_n, run.Sizes().rss_n, run.Sizes().sweep_n}
        assert {str(n) for n in sizes} <= set(pinned[workload.name])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(name, trace, capsys):
    result = run.run(run.WORKLOADS[name], run.DEFAULT_SEED, 0.2, trace, SMOKE)
    out = capsys.readouterr().out
    units = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        assert any(line.split()[:1] == [metric] and unit in line.split() for line in out.splitlines())
    assert "error_rate" in out


def test_flipped_csv_byte_is_a_failure(monkeypatch, capsys):
    write = cli.write_records_csv

    def flip_one_byte(config, records, stream):
        buffer = io.StringIO()
        write(config, records, buffer)
        text = buffer.getvalue()
        at = text.index("\n") + 5  # inside g01 of record 0
        digit = text[at] if text[at].isdigit() else "0"
        stream.write(text[:at] + str((int(digit) + 1) % 10) + text[at + 1:])

    monkeypatch.setattr(cli, "write_records_csv", flip_one_byte)
    result = run.run(run.WORKLOADS["sweep-unconditioned"], 3, 0.2, True, SMOKE)
    assert not result["correct"]
    assert result["failed"] > 0


def test_wrong_certify_answer_is_a_failure(monkeypatch):
    certify = diamond_relay.certify_capacities

    def off_by_a_little(caps):
        report = certify(caps)
        return dataclasses.replace(report, bound=report.bound * (1 + 1e-6))

    monkeypatch.setattr(diamond_relay, "certify_capacities", off_by_a_little)
    result = run.run(run.WORKLOADS["sweep-forced-product"], 3, 0.2, False, SMOKE)
    assert not result["correct"]
    # every in-process call and every CLI process is checked against a bad reference
    assert result["failed"] >= SMOKE.certify_blocks * SMOKE.certify_block + SMOKE.cli_processes


def test_wrong_cli_exit_code_is_a_failure():
    caps = diamond_relay.induced_capacities(2.0, 3.0, 3.0, 2.0)
    reference = diamond_relay.certify_capacities(caps)
    assert reference.capacity_certified
    answer = json.dumps(reference.to_dict()).encode()
    assert checks.cli_answer_ok(0, answer, reference)
    assert not checks.cli_answer_ok(1, answer, reference)
    assert not checks.cli_answer_ok(0, answer.replace(b'"bound": 2.4', b'"bound": 2.5'), reference)


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "sweep-unconditioned",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
