"""Byte pins: sweep files and CLI output must not move under refactoring.

Every digest and string here was recorded from the 0.1.0 code. The sweep
CSV digests of the unconditioned and forced-product modes are read from the
n = 200 entries of bench/golden.json, so the benchmark's pins are kept in one
file; every other digest of that file is checked against a prefix of one
n = 10000 sweep.
"""

import hashlib
import json
from pathlib import Path

import pytest

import diamond_relay
from diamond_relay.cli import main

BENCH_WORKLOADS = {
    # bench/golden.json workload: conditioning, distribution
    "sweep-unconditioned": ("unconditioned", "exponential"),
    "sweep-forced-product": ("force-product-equal", "log-uniform:0.1,10"),
}
# workload: {n: sha256 of the CSV header and the first n rows}; read here, never written
BENCH_PINS = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())

SWEEPS = {
    # conditioning, distribution: (CSV sha256, summary sha256)
    ("unconditioned", "exponential"): (
        BENCH_PINS["sweep-unconditioned"]["200"],
        "2a55fe4e28164dc4dcc99f3d2113e3fd93161962a07d884f66a3b028868eaef1",
    ),
    ("force-product-equal", "log-uniform:0.1,10"): (
        BENCH_PINS["sweep-forced-product"]["200"],
        "155a4f1e39618a2617a1855590c6d5cdbd451aa7001e5530eb10d02d96c6d2d3",
    ),
    ("force-mirrored", "exponential"): (
        "74d857e7e2ea62c29558912191dedfd2b9e54be1d9bd97dc6468810580674a09",
        "0433c1ec370c8605f7412c52c681f6d84476a1a21a5a3252ebbdcf50d2f70445",
    ),
}

INPUTS = {
    "caps_2332": {"c01": 2, "c02": 3, "c13": 3, "c23": 2},
    # a dead link, an explicit source-cut capacity and a derived relay cut
    "dead_link_override": {"c01": 0, "c02": 1.5, "c13": 2.5, "c23": 1.25, "c012": 2.0},
    "gain_spec": {
        "g01": 2.0, "g02": 0.5, "g13": 1.5, "g23": 3.0,
        "sigma1_sq": 1.0, "sigma2_sq": 0.5, "sigma3_sq": 2.0,
        "p_s": 4.0, "p_r1": 1.0, "p_r2": 2.0,
    },
}

OUTPUTS = {
    # input, command, format: (exit code, stdout sha256)
    ("caps_2332", "analyze", "json"): (0, "a8fb527b5141444c591f3a931a235f984c1771d4a84d16ffac8bfb40c5648ad0"),
    ("caps_2332", "analyze", "csv"): (0, "7675a8dd0cf05488d2e369616575e5cd47d75508d421eeffc25cd170c3a14a65"),
    ("caps_2332", "bound", "json"): (0, "77fd5f4b1b720cddeec0eea5ccc7779c5730a418e3c79ef7fd62977175159c8f"),
    ("caps_2332", "bound", "csv"): (0, "a1b92fe4d41bac6db4f54b4a27b42a8914fdfd986f99d580b1b2d166974e75a0"),
    ("caps_2332", "certify", "json"): (0, "28009ed7dfb923b3b5a3468f35c29348baa48ea36b173198d9c6a85b30ddc53c"),
    ("caps_2332", "certify", "csv"): (0, "e3cd0252b4fdd898255bc6d17bc9b380f69b01545cf12575a15853af0a6f275d"),
    ("dead_link_override", "analyze", "json"): (0, "4c8477efe2dfe4487265278467120317c429d6a11e9f233b2a4f4be467d14509"),
    ("dead_link_override", "analyze", "csv"): (0, "c58fb95a143f6e97fede376421101fe8d5013657fe05f0ae60943580f94d59f0"),
    ("dead_link_override", "bound", "json"): (0, "e4ddaf2f81b090218337e3e9455810781a0dae0809a57270005d060dc04145ff"),
    ("dead_link_override", "bound", "csv"): (0, "27a234a9a3bcc07473642497daa9895b322537fa51841a5140d2faf71c82f9ae"),
    ("dead_link_override", "certify", "json"): (1, "066db732685617267dfd04a6060c83538a300638e595819834f1bc9e9f0c12b2"),
    ("dead_link_override", "certify", "csv"): (1, "6495ebdef9afd463f9e2da016701b61bdb8dd9fd0333046c6f2fb1c0ddcfb75a"),
    ("gain_spec", "analyze", "json"): (0, "6089fd00eefd67b45916cbe9f1c49138159ac37902f08266b9661a42363754ea"),
    ("gain_spec", "analyze", "csv"): (0, "3f4c757caff14c9443553751c959012d238dfa221651ea3d9291ab29fef92a8b"),
    ("gain_spec", "bound", "json"): (0, "4c4f3ce8596a996f812dfc3aeab3144b35ce841a62c0a07d265fb033297e06c7"),
    ("gain_spec", "bound", "csv"): (0, "742d6fdbf451509fe79579c90fc6b4bf24cc4627a5d5b0c7068ba4a415c8d770"),
    ("gain_spec", "certify", "json"): (1, "74db35ef6571ab884b8065706e2090b74cca3f58c3f5a87ed6116c319af89d4c"),
    ("gain_spec", "certify", "csv"): (1, "1a92e3a999d27a09aa008f2929b3842f876854ecffc26330fd0fc418c9919cd1"),
}

BAD_INPUTS = [
    # one fault each: (input, exact stderr)
    ({"c01": -1, "c02": 3, "c13": 3, "c23": 2}, "error: c01 must be >= 0, got -1.0\n"),
    ({"c01": "1", "c02": 3, "c13": 3, "c23": 1}, "error: c01 must be a real number, got '1'\n"),
    ({"c01": 1, "c02": 3, "c13": 3}, "error: missing capacity field(s): c23\n"),
    ({"c01": 1, "c02": 3, "c13": 3, "c23": 1, "c99": 1}, "error: unknown capacity field(s): c99\n"),
    ({**INPUTS["gain_spec"], "g01": float("nan")}, "error: g01 must be finite, got nan\n"),
    ({**INPUTS["gain_spec"], "sigma2_sq": 0.0}, "error: sigma2_sq must be > 0, got 0.0\n"),
]


PUBLIC_NAMES = [
    "ChannelSpec", "ConditionError", "Conditioning", "CutSetSolution",
    "DegenerateDenominatorError", "DiamondRelayError", "DomainError",
    "ExponentialUnitMean", "FeasibilityError", "HypothesisError", "InvariantError",
    "LemmaCase", "LinkCapacities", "LogUniform", "NegativeGapError",
    "OptimalityReport", "PerturbationSpec", "SrRateResult", "SweepConfig",
    "SweepRecord", "Winner", "__version__", "certify_capacities",
    "classify", "cut_values", "derive_capacities", "gain_for_capacity",
    "induced_capacities", "iter_records", "link_capacity", "perturbation_check",
    "predicted_rate", "product_condition_holds", "run_sweep",
    "sample_instance", "solve_bound", "sr_rate_closed_form", "sr_rate_min_form",
    "summarize", "t_star", "time_fractions", "write_records_csv",
    "write_summary_json",
]

HELP = {
    # subcommand (None for the top level): --help stdout sha256 at 80 columns
    None: "be8b000dfc183cef0ae2763aad2d97e771946a9389ee18df92937ec38eb96ede",
    "analyze": "935d03dbbbd932450e3888f112ea78936e99847ba308ee11d67978709d2f2cc7",
    "bound": "98704aa2f9f7b3b0fc79948eef8667ac0cda20ffdfebe89778bcf4adabe52fcb",
    "certify": "930821e6ad5ef909016359af9649bc6aa1fa5095c162ec84103180dc6f225858",
    "sweep": "a937652950303931e1dbced09c7155cf49495048ec625fdc59b57fe6798db2e7",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("conditioning, distribution", list(SWEEPS))
def test_sweep_files_are_pinned(tmp_path, conditioning, distribution):
    path = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--n", "200", "--seed", "0", "--conditioning", conditioning,
        "--distribution", distribution, "--output", str(path),
    ]
    assert main(argv) == 0
    csv_digest, summary_digest = SWEEPS[(conditioning, distribution)]
    assert sha256(path.read_bytes()) == csv_digest
    assert sha256(path.with_suffix(".summary.json").read_bytes()) == summary_digest


@pytest.mark.parametrize("workload", list(BENCH_WORKLOADS))
def test_every_benchmark_digest_is_a_prefix_of_one_sweep(tmp_path, workload):
    # record i depends only on (seed, i), so a shorter sweep is a prefix of a longer one
    pinned = {int(n): digest for n, digest in BENCH_PINS[workload].items()}
    conditioning, distribution = BENCH_WORKLOADS[workload]
    path = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--n", str(max(pinned)), "--seed", "0", "--conditioning", conditioning,
        "--distribution", distribution, "--output", str(path),
    ]
    assert main(argv) == 0
    lines = path.read_bytes().splitlines(keepends=True)
    got = {n: sha256(b"".join(lines[: n + 1])) for n in pinned}  # header and n rows
    assert got == pinned


@pytest.mark.parametrize("name, command, fmt", list(OUTPUTS))
def test_cli_stdout_is_pinned(capsys, name, command, fmt):
    code = main([command, "--input", json.dumps(INPUTS[name]), "--format", fmt])
    out = capsys.readouterr().out
    assert (code, sha256(out.encode())) == OUTPUTS[(name, command, fmt)], out


@pytest.mark.parametrize("data, message", BAD_INPUTS)
def test_bad_input_reports_are_pinned(capsys, data, message):
    code = main(["certify", "--input", json.dumps(data)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)


def test_public_names_are_pinned():
    assert sorted(diamond_relay.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(diamond_relay, name)


@pytest.mark.parametrize("command", list(HELP))
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    out = capsys.readouterr().out
    assert (exit_info.value.code, sha256(out.encode())) == (0, HELP[command]), out
