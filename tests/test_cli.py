"""Command-line interface: subcommands, formats, inputs, exit codes."""

import contextlib
import csv
import gc
import io
import json
import os
import shlex
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from diamond_relay import DomainError, InvariantError, NegativeGapError, cli, experiments
from diamond_relay.cli import main
from test_golden import INPUTS as GOLDEN_INPUTS

CAPS_2332 = json.dumps({"c01": 2, "c02": 3, "c13": 3, "c23": 2})
GAINS_SNR3 = json.dumps(
    {
        "g01": 3.0, "g02": 3.0, "g13": 3.0, "g23": 3.0,
        "sigma1_sq": 1.0, "sigma2_sq": 1.0, "sigma3_sq": 1.0,
        "p_s": 1.0, "p_r1": 1.0, "p_r2": 1.0,
    }
)


BLOCK = experiments._BLOCK
SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_negative_zero_reads_as_zero(self, capsys):
        inst = '{"c01": -0.0, "c02": 1, "c13": 1, "c23": 1}'
        code, out, _ = run(capsys, "analyze", "--input", inst)
        assert code == 0
        assert '"c01": 0.0,' in out
        assert "-0.0" not in out

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

    def test_tiny_links_are_classified_as_at_scale_one(self, capsys):
        # both capacity products underflow to 0.0 as plain float products
        inst = {"c01": 1e-170, "c02": 2e-170, "c13": 3e-170, "c23": 5e-171}
        for scale in (1.0, 1e170):
            scaled = json.dumps({k: v * scale for k, v in inst.items()})
            code, out, _ = run(capsys, "certify", "--input", scaled)
            assert code == 1
            assert json.loads(out)["lemma_case"] == "none"


# four binding cuts and a t*; three binding cuts and no t*; a dead link; a gain spec
CSV_INSTANCES = [
    {"c01": 2, "c02": 3, "c13": 3, "c23": 2},
    {"c01": 1, "c02": 3, "c13": 2, "c23": 2},
    GOLDEN_INPUTS["dead_link_override"],
    GOLDEN_INPUTS["gain_spec"],
]


@pytest.mark.parametrize("command", ["analyze", "bound", "certify"])
def test_csv_header_is_fixed_per_command(capsys, command):
    """Rows from any two instances stack into one table under one header."""
    headers = set()
    for inst in CSV_INSTANCES:
        _, out, _ = run(capsys, command, "--input", json.dumps(inst), "--format", "csv")
        header, row = out.splitlines()
        assert len(row.split(",")) == len(header.split(",")), out
        headers.add(header)
    assert len(headers) == 1, headers


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

    # exit 1 from certify is a verdict, so input that cannot be read must not end in it
    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "certify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: input is not valid JSON:") and err.count("\n") == 1

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"c01": ' + "7" * 5000 + ', "c02": 1, "c13": 1, "c23": 1}')
        code, out, err = run(capsys, "certify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bytes_that_do_not_decode(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "certify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestDefect:
    @pytest.mark.parametrize(
        "command, name, error",
        [("certify", "certify_capacities", NegativeGapError),
         ("bound", "solve_bound", InvariantError)],
    )
    def test_exits_70_with_a_traceback(self, capsys, monkeypatch, command, name, error):
        # a crash must not read as "not certified" (1) nor as bad input (2)
        def broken(caps):
            raise error("broken on purpose")

        monkeypatch.setattr(cli, name, broken)
        code, out, err = run(capsys, command, "--input", CAPS_2332)
        assert code == cli.EXIT_DEFECT == 70
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith(f"{error.__name__}: broken on purpose\n")


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

    @pytest.mark.parametrize("fifo_at", ["output", "summary"])
    def test_failed_sweep_leaves_a_fifo(self, capsys, tmp_path, fifo_at):
        """Only regular files are removed: a FIFO at --output, or at the
        summary path next to a regular CSV, outlives a failing sweep."""
        dest = tmp_path / "F"
        fifo = dest if fifo_at == "output" else tmp_path / "F.summary.json"
        if fifo_at == "summary":
            dest.write_text("an earlier run's CSV\n")
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening it to write returns
        try:
            code, _, err = run(
                capsys,
                "sweep", "--n", "1", "--conditioning", "force-product-equal",
                "--distribution", "log-uniform:1e20,1e21", "--output", str(dest),
            )
        finally:
            os.close(reader)
        assert code == 2
        assert "rejected every draw" in err
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        if fifo_at == "summary":
            assert not dest.exists()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_rows_and_summary_go_through_the_module_names(
        self, capsys, monkeypatch, tmp_path, to_file
    ):
        """A sweep looks up cli.write_records_csv and cli.summarize at call
        time and writes every row through the former, so a wrapper set on
        either name sees the whole sweep once and leaves its bytes alone."""
        argv = ["sweep", "--n", "5", "--seed", "3"]
        if to_file:
            argv += ["--output", str(tmp_path / "s.csv")]

        def outputs():
            code, out, err = run(capsys, *argv)
            assert code == 0
            if to_file:
                return (tmp_path / "s.csv").read_text(), (tmp_path / "s.summary.json").read_text()
            return out, err

        want = outputs()
        written, summaries = [], []
        write, summarize = cli.write_records_csv, cli.summarize

        def write_through_a_buffer(config, records, stream):
            buffer = io.StringIO()
            write(config, records, buffer)
            written.append(buffer.getvalue())
            stream.write(written[-1])

        def counted_summarize(config, records):
            summaries.append(config)
            return summarize(config, records)

        monkeypatch.setattr(cli, "write_records_csv", write_through_a_buffer)
        monkeypatch.setattr(cli, "summarize", counted_summarize)
        assert outputs() == want
        assert written == [want[0]]
        assert len(summaries) == 1

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

    def test_cli_import_does_not_load_csv(self):
        # the package writes CSV with str.join; a second writer would show up here
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, diamond_relay.cli; print('csv' in sys.modules)"],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_closed_stdout_exits_141_quietly(self):
        # a reader that stops early is not bad input: exit 128 + SIGPIPE, one line on stderr
        script = ("import sys\nfrom diamond_relay.cli import main\n"
                  "sys.exit(main(['sweep', '--n', '2000']))\n")
        with process_group([sys.executable, "-c", script]) as proc:
            assert proc.stdout.readline().startswith("seed,index,")
            assert proc.stdout.readline().startswith("0,0,")
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141, err
        assert "Broken pipe" in err
        assert "Traceback" not in err
        assert "Exception ignored" not in err


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def python_with_two_cpus(body):
    """A script that imports the CLI and shards every sweep over two processes."""
    return ("import os, sys\n"
            "from diamond_relay.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n" + body)


@contextlib.contextmanager
def process_group(args, **kwargs):
    """A child in a session of its own, with the package on its path; on the
    way out, even from a failed or timed-out test, its whole group is killed."""
    proc = subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env={**os.environ, "PYTHONPATH": str(SRC)}, **kwargs,
    )
    try:
        yield proc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def read_a_worker_block(proc):
    """Read a sharded sweep's header and first two blocks of rows: the second
    block comes from a worker, so the worker is running."""
    assert proc.stdout.readline().startswith("seed,index,")
    for index in range(2 * BLOCK):
        assert proc.stdout.readline().split(",")[1] == str(index)


# script lines that print 'no child left' when the sweep left no child process
NO_CHILD = ("try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left', file=sys.stderr)\n")


class TestShardedSweep:
    """sweep runs on as many processes as it has usable CPUs (see
    experiments.iter_records); what it prints and leaves behind does not
    depend on that."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_rows_match_one_process(self, capsys, monkeypatch):
        argv = ("sweep", "--n", str(3 * BLOCK + 7), "--seed", "5")
        sharded = run(capsys, *argv)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run(capsys, *argv) == sharded
        assert sharded[0] == 0
        assert_no_child()

    @pytest.mark.parametrize("bad", [BLOCK + 10, 2 * BLOCK], ids=["worker_block", "own_block"])
    def test_error_prints_exactly_the_rows_before_it(self, capsys, monkeypatch, tmp_path, bad):
        original = experiments.sample_instance

        def sample(config, index):
            if index == bad:
                raise DomainError(f"no record {index}")
            return original(config, index)

        monkeypatch.setattr(experiments, "sample_instance", sample)
        argv = ("sweep", "--n", str(3 * BLOCK + 7), "--seed", "5")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: no record {bad}\n"
        rows = out.splitlines()
        assert len(rows) == 1 + bad
        assert rows[-1].startswith(f"5,{bad - 1},")
        assert_no_child()

        dest = tmp_path / "runs.csv"
        code, _, err = run(capsys, *argv, "--output", str(dest))
        assert (code, err) == (2, f"error: no record {bad}\n")
        assert not dest.exists()
        assert not (tmp_path / "runs.summary.json").exists()
        assert_no_child()

    def test_a_worker_prints_nothing_to_stdout(self):
        # the header waits in this process's stdout buffer when the worker is
        # forked; a flush in the worker would write it a second time
        script = python_with_two_cpus(
            "from diamond_relay import experiments\n"
            "original = experiments.sample_instance\n"
            "def sample(config, index):\n"
            f"    if index == {BLOCK}:\n"
            "        print('stray', flush=True)\n"
            "    return original(config, index)\n"
            "experiments.sample_instance = sample\n"
            f"sys.exit(main(['sweep', '--n', '{2 * BLOCK}']))\n"
        )
        with process_group([sys.executable, "-c", script]) as proc:
            out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        rows = out.splitlines()
        assert rows[0].startswith("seed,index,")
        assert [row.split(",")[1] for row in rows[1:]] == [str(i) for i in range(2 * BLOCK)]

    def test_broken_stdout_pipe_leaves_no_child(self):
        script = python_with_two_cpus(f"code = main(['sweep', '--n', '2000'])\n{NO_CHILD}")
        command = f"{shlex.quote(sys.executable)} -c {shlex.quote(script)} | head -2"
        with process_group(command, shell=True) as proc:
            out, err = proc.communicate(timeout=120)
        assert out.splitlines()[0].startswith("seed,index,")
        assert len(out.splitlines()) == 2
        assert "Broken pipe" in err
        assert "no child left" in err

    def test_interrupt_leaves_no_child(self):
        # SIGINT goes to the whole process group, as Ctrl-C does
        script = python_with_two_cpus(
            f"try:\n    main(['sweep', '--n', '100000'])\nexcept KeyboardInterrupt:\n"
            f"    pass\n{NO_CHILD}"
        )
        with process_group([sys.executable, "-c", script]) as proc:
            read_a_worker_block(proc)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=120)
        assert "no child left" in err

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    def test_killed_sweep_leaves_no_worker(self):
        # SIGKILL runs no cleanup, so the worker must notice by itself: it
        # holds no read end of its pipe, and its next write fails. It shares
        # stderr with the killed process, so stderr ends only when it exits.
        script = python_with_two_cpus("main(['sweep', '--n', '100000'])\n")
        with process_group([sys.executable, "-c", script]) as proc:
            read_a_worker_block(proc)
            os.kill(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=30)
            assert proc.returncode == -signal.SIGKILL
            deadline = time.monotonic() + 10
            while live_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert live_members(proc.pid) == []


def live_members(pgid):
    """Pids of the processes in group pgid that have not exited (zombies excluded)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # it exited meanwhile
            continue
        state, _, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members
