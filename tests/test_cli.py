"""Command-line interface: subcommands, formats, inputs, exit codes."""

import csv
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from diamond_relay.cli import main

CAPS_2332 = json.dumps({"c01": 2, "c02": 3, "c13": 3, "c23": 2})
GAINS_SNR3 = json.dumps(
    {
        "g01": 3.0, "g02": 3.0, "g13": 3.0, "g23": 3.0,
        "sigma1_sq": 1.0, "sigma2_sq": 1.0, "sigma3_sq": 1.0,
        "p_s": 1.0, "p_r1": 1.0, "p_r2": 1.0,
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_inline_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", CAPS_2332)
        assert code == 0
        payload = json.loads(out)
        assert payload["sr_rate"]["r_sr"] == pytest.approx(2.4)
        assert payload["sr_rate"]["winner"] == "tie"
        assert payload["capacities"]["c01"] == 2.0

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(CAPS_2332)
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert json.loads(out)["sr_rate"]["r_sr"] == pytest.approx(2.4)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(CAPS_2332))
        code, out, _ = run(capsys, "analyze", "--input", "-")
        assert code == 0
        assert json.loads(out)["sr_rate"]["r_sr"] == pytest.approx(2.4)

    def test_csv_format_is_one_flat_row(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", CAPS_2332, "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        names = header.split(",")
        values = next(csv.reader(io.StringIO(row)))
        assert "sr_rate.r_sr" in names
        assert float(values[names.index("sr_rate.r_sr")]) == pytest.approx(2.4)
        assert values[names.index("sr_rate.degenerate")] == "false"

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run(capsys, "analyze", "--input", CAPS_2332, "--output", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["sr_rate"]["r_sr"] == pytest.approx(2.4)


class TestBound:
    def test_reports_schedule_and_cuts(self, capsys):
        code, out, _ = run(capsys, "bound", "--input", CAPS_2332)
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == pytest.approx(2.4)
        assert payload["t"] == pytest.approx([0.0, 0.4, 0.6, 0.0])
        assert payload["binding"] == [1, 2, 3, 4]


class TestCertify:
    def test_certified_exits_zero(self, capsys):
        code, out, _ = run(capsys, "certify", "--input", CAPS_2332)
        assert code == 0
        assert json.loads(out)["capacity_certified"] is True

    def test_gain_space_input(self, capsys):
        code, out, _ = run(capsys, "certify", "--input", GAINS_SNR3)
        assert code == 0
        payload = json.loads(out)
        assert payload["r_sr"] == pytest.approx(2.0)
        assert payload["lemma_case"] == "product_equal"

    def test_uncertified_exits_one(self, capsys):
        inst = json.dumps({"c01": 1, "c02": 1, "c13": 2, "c23": 2})
        code, out, _ = run(capsys, "certify", "--input", inst)
        assert code == 1
        payload = json.loads(out)
        assert payload["capacity_certified"] is False
        assert payload["gap"] > 1e-3


class TestInputErrors:
    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "{nope")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "/no/such/file.json")
        assert code == 2
        assert "error:" in err

    def test_non_object_json(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "[1, 2, 3]")
        assert code == 2
        assert "object" in err

    def test_unknown_capacity_field(self, capsys):
        inst = json.dumps({"c01": 1, "c02": 1, "c13": 1, "c23": 1, "c99": 1})
        code, _, err = run(capsys, "analyze", "--input", inst)
        assert code == 2
        assert "c99" in err

    def test_missing_capacity_field(self, capsys):
        inst = json.dumps({"c01": 1, "c02": 1})
        code, _, err = run(capsys, "analyze", "--input", inst)
        assert code == 2
        assert "c13" in err and "c23" in err

    def test_unrelated_object(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", json.dumps({"foo": 1}))
        assert code == 2

    def test_negative_capacity(self, capsys):
        inst = json.dumps({"c01": -1, "c02": 1, "c13": 1, "c23": 1})
        code, _, err = run(capsys, "certify", "--input", inst)
        assert code == 2

    def test_integer_beyond_double_range(self, capsys):
        inst = json.dumps({"c01": 1, "c02": 1, "c13": 1, "c23": 10**400})
        code, out, err = run(capsys, "analyze", "--input", inst)
        assert code == 2
        assert out == ""
        assert err == "error: c23 must be finite, got an integer too large for a float\n"

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # --input is required
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSweep:
    def test_stdout_csv_stderr_summary(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "5", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("seed,index,g01")
        assert len(lines) == 6
        summary = json.loads(err)
        assert summary["n_samples"] == 5

    def test_output_files(self, capsys, tmp_path):
        dest = tmp_path / "runs.csv"
        code, out, _ = run(
            capsys, "sweep", "--n", "4", "--seed", "9", "--output", str(dest)
        )
        assert code == 0
        assert out == ""
        assert len(dest.read_text().splitlines()) == 5
        summary = json.loads((tmp_path / "runs.summary.json").read_text())
        assert summary["seed"] == 9

    def test_byte_identical_reruns(self, capsys, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            dest = tmp_path / name
            code, _, _ = run(
                capsys, "sweep", "--n", "8", "--seed", "42", "--output", str(dest)
            )
            assert code == 0
            blobs.append(dest.read_bytes())
        assert blobs[0] == blobs[1]

    def test_conditioning_flag(self, capsys):
        code, out, err = run(
            capsys,
            "sweep", "--n", "6", "--seed", "2",
            "--conditioning", "force-product-equal",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert all(row.endswith(",product_equal,true") for row in rows)
        assert json.loads(err)["certification_rate"] == 1.0

    def test_log_uniform_distribution_flag(self, capsys):
        code, out, err = run(
            capsys,
            "sweep", "--n", "3", "--seed", "1",
            "--distribution", "log-uniform:0.5,2.0",
        )
        assert code == 0
        summary = json.loads(err)
        assert summary["gain_distribution"] == {"name": "log_uniform", "lo": 0.5, "hi": 2.0}
        for row in out.splitlines()[1:]:
            gains = [float(v) for v in row.split(",")[2:6]]
            assert all(0.5 <= g <= 2.0 for g in gains)

    def test_bad_distribution_exits_two(self, capsys):
        for spec in ("log-uniform:1", "log-uniform:a,b", "gaussian"):
            code, _, err = run(capsys, "sweep", "--n", "2", "--distribution", spec)
            assert code == 2
            assert "error:" in err

    def test_bad_seed_exits_two(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "2", "--seed", "-5")
        assert code == 2

    @pytest.mark.parametrize("earlier_run", [False, True], ids=["fresh", "over_an_earlier_run"])
    def test_failed_sweep_leaves_no_files(self, capsys, tmp_path, earlier_run):
        dest = tmp_path / "F"
        if earlier_run:
            assert run(capsys, "sweep", "--n", "2", "--output", str(dest))[0] == 0
        # log-uniform gains in [1e20, 1e21] imply c23 >= 63 > 50 on every draw
        code, _, err = run(
            capsys,
            "sweep", "--n", "1", "--conditioning", "force-product-equal",
            "--distribution", "log-uniform:1e20,1e21", "--output", str(dest),
        )
        assert code == 2
        assert "rejected every draw" in err
        assert not dest.exists()
        assert not (tmp_path / "F.summary.json").exists()

    def test_memory_per_record_is_small(self, capsys, tmp_path):
        """Rows are written as they are made and a record leaves behind only
        the four fields summarize reads: about 300 B a record between these
        sizes, where keeping every SweepRecord cost about 940 B."""

        def peak_bytes(n):
            gc.collect()  # also empties the free lists, so each run starts alike
            tracemalloc.start()
            try:
                code = main(["sweep", "--n", str(n), "--output", str(tmp_path / "s.csv")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        peak_bytes(20)  # first-call allocations happen here
        per_record = (peak_bytes(2000) - peak_bytes(200)) / 1800
        assert per_record < 500

    def test_sweep_does_not_load_numpy_random(self, tmp_path):
        script = (
            "import sys\n"
            "from diamond_relay import cli\n"
            f"assert cli.main(['sweep', '--n', '3', '--output', {str(tmp_path / 's.csv')!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]
