"""Command-line frontend: analyze, bound, certify, sweep.

Machine-readable output (JSON or flat CSV) goes to stdout or --output;
everything human-oriented goes to stderr. Exit codes: 0 on success (and on
a certified instance), 1 when certify ran fine but the instance is not
certified, 2 on any input problem, 70 on a defect in the package
(InvariantError, with its traceback), 141 when stdout closes early (SIGPIPE).

sweep writes each CSV row as experiments.iter_records yields its record
(that docstring gives how records are spread over processes) and keeps, per
record, only the four fields the summary reads. A sweep that fails partway
leaves no CSV and no summary as regular files at --output; on stdout, the
rows before the failed record stay printed. When this process is killed
outright (SIGKILL), the partial CSV stays at --output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import namedtuple
from dataclasses import fields
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .channel_model import (
    ChannelSpec,
    LinkCapacities,
    _checked_keys,
    derive_capacities,
    induced_capacities,
)
from .cutset_lp import solve_bound
from .errors import DiamondRelayError, DomainError, InvariantError
from .experiments import (
    Conditioning,
    ExponentialUnitMean,
    LogUniform,
    SweepConfig,
    SweepRecord,
    iter_records,
    summarize,
    write_records_csv,
    write_summary_json,
)
from .optimality import certify_capacities
from .sr_rate import sr_rate_min_form

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_INPUT_ERROR = 2
EXIT_DEFECT = 70  # sysexits' EX_SOFTWARE
EXIT_BROKEN_PIPE = 141

_SPEC_FIELDS = frozenset(field.name for field in fields(ChannelSpec))
# the four link capacities are required, the two cut capacities optional
_CAPACITY_FIELDS = frozenset(field.name for field in fields(LinkCapacities))
_LINK_FIELDS = _CAPACITY_FIELDS - {"c012", "c123"}

_CONDITIONING_BY_FLAG = {mode.value.replace("_", "-"): mode for mode in Conditioning}


def _load_input(raw: str) -> dict[str, object]:
    """--input accepts a file path, inline JSON, or - for stdin."""
    if raw.lstrip()[:1] in ("{", "["):  # "-" (stdin) falls through to the read
        text = raw
    else:
        try:
            text = sys.stdin.read() if raw == "-" else Path(raw).read_text()
        except (OSError, ValueError) as exc:  # ValueError: bytes that do not decode
            raise DomainError(f"cannot read input file {raw}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep a nesting
        raise DomainError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"input must be a JSON object, got {type(data).__name__}")
    return data


def _capacities_from_input(data: dict[str, object]) -> LinkCapacities:
    """Accept either a gain-space channel spec or a capacity-space object."""
    if _SPEC_FIELDS & set(data):
        return derive_capacities(ChannelSpec.from_dict(data))
    if _CAPACITY_FIELDS & set(data):
        _checked_keys("capacity", data, _CAPACITY_FIELDS, _LINK_FIELDS)
        return induced_capacities(**data)  # type: ignore[arg-type]
    raise DomainError(
        "input must be a channel spec (g01, ..., p_r2) or link capacities (c01, c02, c13, c23)"
    )


def _flatten(payload: dict[str, object], prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def _csv_cell(value: object) -> str:
    """One CSV cell: 17-digit floats, lower-case booleans, None empty, lists ';'-joined."""
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ";".join(map(_csv_cell, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _open_output(path: str | Path | None, standard: TextIO | None = None):
    """path opened for writing or, when path is None, standard (default stdout) left open."""
    if path is None:
        return contextlib.nullcontext(standard or sys.stdout)
    return open(path, "w", newline="")


def _write_payload(payload: dict[str, object], args: argparse.Namespace) -> None:
    with _open_output(args.output) as stream:
        if args.format == "json":
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            flat = _flatten(payload)  # no cell holds a comma, quote or newline
            stream.write(",".join(flat) + "\n")
            stream.write(",".join(_csv_cell(v) for v in flat.values()) + "\n")


def _analyze(caps: LinkCapacities) -> tuple[dict[str, object], int]:
    return {"capacities": caps.to_dict(), "sr_rate": sr_rate_min_form(caps).to_dict()}, EXIT_OK


def _certify(caps: LinkCapacities) -> tuple[dict[str, object], int]:
    report = certify_capacities(caps)
    return report.to_dict(), EXIT_OK if report.capacity_certified else EXIT_UNCERTIFIED


# (subcommand, help, report): report maps an instance to (payload, exit code)
_INSTANCE_COMMANDS = (
    ("analyze", "link capacities and the achievable rate", _analyze),
    ("bound", "half-duplex cut-set upper bound",
     lambda caps: (solve_bound(caps).to_dict(), EXIT_OK)),
    ("certify", "check whether the alternating schedule achieves the bound", _certify),
)


def _cmd_instance(args: argparse.Namespace) -> int:
    payload, code = args.report(_capacities_from_input(_load_input(args.input)))
    _write_payload(payload, args)
    return code


def _parse_distribution(text: str) -> ExponentialUnitMean | LogUniform:
    if text == "exponential":
        return ExponentialUnitMean()
    if text.startswith("log-uniform:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise DomainError("log-uniform takes two bounds, as in log-uniform:0.1,10")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise DomainError(f"log-uniform bounds must be numbers, got {text!r}") from None
        return LogUniform(lo, hi)
    raise DomainError(
        f"unknown distribution {text!r}; use 'exponential' or 'log-uniform:lo,hi'"
    )


# what summarize reads of a record: a sweep keeps this much of each one
_Kept = namedtuple("_Kept", "gap bound certified lemma_case")


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        n_samples=args.n,
        seed=args.seed,
        gain_distribution=_parse_distribution(args.distribution),
        conditioning=_CONDITIONING_BY_FLAG[args.conditioning],
    )
    kept: list[_Kept] = []
    sweep = iter_records(config)

    def records() -> Iterator[SweepRecord]:
        for record in sweep:
            kept.append(_Kept(record.gap, record.bound, record.certified, record.lemma_case))
            yield record

    # without --output, the CSV goes to stdout and the summary to stderr
    csv_path = None if args.output is None else Path(args.output)
    # opened outside the try: a file this sweep could not open is not its to remove
    output = _open_output(csv_path)
    summary_path = csv_path and csv_path.with_suffix(".summary.json")
    try:
        # the sweep is closed on every way out, so a failed write stops its workers at once
        with output as stream, contextlib.closing(sweep):
            write_records_csv(config, records(), stream)
        with _open_output(summary_path, sys.stderr) as summary:
            write_summary_json(summarize(config, kept), summary)
    except BaseException:
        # an earlier run's summary would describe a CSV that is gone
        for path in (csv_path, summary_path):
            if path is not None and path.is_file():  # not a FIFO or device named at --output
                path.unlink(missing_ok=True)
        raise
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamond-relay",
        description=(
            "Successive-relaying rates, half-duplex cut-set bounds, and capacity "
            "certification for the diamond relay channel."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, text, report in _INSTANCE_COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument(
            "--input",
            required=True,
            help="channel instance: path to a JSON file, inline JSON, or - for stdin",
        )
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(handler=_cmd_instance, report=report)

    p = sub.add_parser("sweep", help="seeded Monte Carlo sweep: CSV records plus a JSON summary")
    p.add_argument("--n", type=int, default=100, help="number of instances")
    p.add_argument("--seed", type=int, default=0, help="64-bit sweep seed")
    p.add_argument(
        "--conditioning",
        choices=tuple(_CONDITIONING_BY_FLAG),
        default="unconditioned",
    )
    p.add_argument(
        "--distribution",
        default="exponential",
        help="gain law: 'exponential' or 'log-uniform:lo,hi'",
    )
    p.add_argument(
        "--output",
        default=None,
        help=(
            "CSV path; the summary goes next to it with a .summary.json suffix. "
            "Without this, CSV goes to stdout and the summary to stderr."
        ),
    )
    p.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError as exc:  # stdout's reader left early: not bad input
        with open(os.devnull, "w") as devnull:  # fd 1 for the interpreter's last flush
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        with contextlib.suppress(BrokenPipeError):  # stderr may be the same pipe
            print(f"error: stdout closed early: {exc}", file=sys.stderr)
        return EXIT_BROKEN_PIPE
    except (DiamondRelayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InvariantError:  # a defect in this package: neither a verdict nor bad input
        import traceback  # imported here: only a defect needs it

        traceback.print_exc()
        return EXIT_DEFECT


if __name__ == "__main__":
    sys.exit(main())
