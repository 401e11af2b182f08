"""The perf ledger's one command.

Driver form (one workload, one fresh process, one JSON object as the
last line of standard output)::

    python3 benchmarks/perf/run.py --workload csv_stream --seed 7 \
        --seconds 10 --trace 0

Ledger form (every workload in its own child process, untraced runs
then one traced run each, every metric printed by name and unit)::

    python3 benchmarks/perf/run.py [--seed N] [--runs K] [--out FILE]
    python3 benchmarks/perf/run.py --smoke
    python3 benchmarks/perf/run.py --aa
    python3 benchmarks/perf/run.py --compare A.json B.json

See README.md beside this file for the workloads, the metrics, and how
to read the numbers.
"""

import argparse
import json
import os
import shutil
import sys
import time

_STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Scratch space inside the checkout (ignored by git).
WORK = os.path.join(HERE, ".work")
DEFAULT_SEED = 7
#: A claim must also hold on this seed, never used while tuning.
HELD_OUT_SEED = 11


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"drives every generator (default {DEFAULT_SEED}; "
        f"{HELD_OUT_SEED} is held out: never tune against it)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--detail", action="store_true",
        help="with --workload: print a DETAIL line before the result",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="untraced runs per workload, seeds seed..seed+K-1 "
        "(default 3; 5 per set with --aa)",
    )
    parser.add_argument("--out", help="ledger form: write the result file")
    parser.add_argument(
        "--smoke", action="store_true",
        help="1/16 scale, one set-up, no warm-up, one traced run per "
        "workload: same code paths and oracle in seconds",
    )
    parser.add_argument(
        "--aa", action="store_true",
        help="two sets of the same code back to back, judged by the bounds",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="diff two result files with the bounds; B is the change",
    )
    return parser


def _bootstrap():
    """Put the program and the harness modules on the import path.

    The benchmark measures the checkout it sits in, never an installed
    copy, so a directory without ``src/repro`` is refused outright.
    """
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.exit(f"run.py: no program to measure at {source}/repro")
    sys.path[:0] = [source, HERE]


def _run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)["run_seconds"]


def _one_workload(args):
    import harness

    import_s = time.perf_counter() - _STARTED
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        payload, detail = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, workdir, import_s,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.detail:
        print("DETAIL " + json.dumps(detail))
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


def main(argv=None):
    args = _parser().parse_args(argv)
    _bootstrap()
    if args.compare:
        import ledger

        return ledger.compare_files(*args.compare)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else _run_seconds()
    if args.workload:
        import spec

        if args.workload not in spec.WORKLOADS:
            sys.exit(f"run.py: unknown workload {args.workload!r}")
        return _one_workload(args)
    import ledger

    if args.aa:
        args.runs = args.runs or 5
        return ledger.aa(args)
    if args.runs is None:
        # Smoke takes its end-to-end numbers from the traced run.
        args.runs = 0 if args.smoke else 3
    return ledger.run(args)


if __name__ == "__main__":
    sys.exit(main())
