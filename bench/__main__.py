"""Command line: ``python -m bench <command>``.

``measure``  one run of one workload in the benchmark contract's form
             (``--workload --seed --seconds --trace``); the last stdout
             line is the result object.  This is ``BENCHMARK.json``'s
             ``command``.
``run``      every workload (or ``--workload NAME ...``), tracing off:
             the end-to-end metrics, a table and ``bench/out/latest.json``.
``trace``    the separate traced run: the per-layer metrics, the span
             files ``bench/out/trace-<workload>.jsonl`` and
             ``bench/out/latest-trace.json``.
``compare``  two result files of ``run``: ok / regressed / unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import harness
from bench.compare import compare_files
from bench.metrics import WORKLOADS


def default_seconds() -> float:
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="one contract-form run of one workload")
    measure.add_argument("--workload", required=True, choices=list(WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), required=True)

    for name in ("run", "trace"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--workload", nargs="+", choices=list(WORKLOADS))
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
        cmd.add_argument("--smoke", action="store_true", help="tiny sizes (bench/tests only)")
        cmd.add_argument("--out", type=Path)

    compare = sub.add_parser("compare")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.a, args.b)

    harness.require_program()
    if args.command == "measure":
        one = harness.trace_workload if args.trace else harness.measure_workload
        doc = one(args.workload, seed=args.seed, seconds=args.seconds)
        for failure in doc["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        if doc["metrics"]:  # a crashed, hung or invalid run has none to show
            print(harness.contract_line(doc))
        return 1 if doc["failed"] else 0

    default_out = "latest.json" if args.command == "run" else "latest-trace.json"
    return harness.run_all(
        args.command,
        args.workload or list(WORKLOADS),
        seed=args.seed,
        seconds=args.seconds if args.seconds is not None else default_seconds(),
        size="smoke" if args.smoke else "full",
        out=args.out or harness.OUT_DIR / default_out,
    )


if __name__ == "__main__":
    sys.exit(main())
