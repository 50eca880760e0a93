"""The fresh-process side of the benchmark; run.py starts it one process at a time.

    child.py import
        Import diamond_relay.cli and print {"import_s": ...}.
    child.py sweep --n N --seed SEED --conditioning C --distribution D --output FILE
        Import diamond_relay and diamond_relay.cli, evaluate record 0 of that
        sweep (set-up ends here), then pass the arguments to cli.main as
        `diamond-relay sweep ...` does, and print the set-up time, the sweep
        time and the process's peak resident memory as one JSON line.

The package must be importable (run.py puts its src directory on PYTHONPATH).
Times start when this file starts running, before any package import.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def sweep(argv: list[str]) -> dict:
    parser = argparse.ArgumentParser(prog="child.py sweep")
    for flag in ("--n", "--seed", "--conditioning", "--distribution", "--output"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args(argv[1:])

    import diamond_relay as dr
    from diamond_relay import cli

    import checks

    config = checks.sweep_config(int(args.n), int(args.seed), args.conditioning, args.distribution)
    dr.certify_capacities(dr.derive_capacities(dr.sample_instance(config, 0)))
    setup_end = time.perf_counter()
    code = cli.main(argv)
    end = time.perf_counter()
    return {
        "exit": code,
        "setup_s": setup_end - START,
        "sweep_s": end - setup_end,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["import"]:
        import diamond_relay.cli  # noqa: F401

        result = {"import_s": time.perf_counter() - START}
    elif argv[:1] == ["sweep"]:
        result = sweep(argv)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
