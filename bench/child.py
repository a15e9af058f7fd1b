"""The workload child: one fresh process per workload run.

Started by ``bench.harness`` as ``python -m bench.child ...`` so that
every workload gets clean imports and a clean RSS.  The last line of its
standard output is one JSON document; the harness reads nothing else.

Modes: ``measure`` (set-up, timed repeats, verification), ``setup``
(set-up only: the harness takes ``setup_s`` as a median over several
children), ``trace`` (the per-layer run), and ``unpinned`` (the
``parallel.blas_oversub_ratio`` probe: one repeat with the BLAS thread
variables left alone).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from bench.stats import summarize

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """One compute thread per rank is the paper's model; it must be in
    the environment before numpy loads its BLAS."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_VARS:
        os.environ[var] = "1"


def peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0  # Linux reports KiB


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "trace", "unpinned"), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--tmp", required=True, help="scratch directory inside bench/out")
    parser.add_argument("--t0", type=float, help="perf_counter() when the harness spawned us")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.perf_counter()

    if args.mode != "unpinned":
        pin_blas()
    from pathlib import Path

    import numpy

    from bench.workloads import WORKLOADS

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    # The traced run repeats the unit twice (untraced base, then traced);
    # only the open-loop stream's length depends on --seconds.
    seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
    workload = WORKLOADS[args.workload](args.seed, seconds, args.size, tmp)
    workload.setup()
    doc: dict = {
        "workload": workload.name,
        "mode": args.mode,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "setup_s": time.perf_counter() - t0,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.mode == "unpinned":
        doc["wall_s"] = workload.repeat()
    elif args.mode == "measure":
        doc.update(measure(workload))
    elif args.mode == "trace":
        from bench.layers import trace_workload

        doc.update(trace_workload(workload, tmp))
    print(json.dumps(doc))
    return 0


def measure(workload) -> dict:
    """Timed repeats, then verification; the end-to-end metrics are
    medians over the repeats (quartiles and n ride along)."""
    samples = workload.measure()
    invalid = workload.validity()
    checks = workload.verify()
    latency = summarize(samples["latency_s"])
    if "latency_spread_s" in samples:
        spread = summarize(samples["latency_spread_s"])
        latency.update(q1=spread["q1"], q3=spread["q3"])
    summaries = {
        "mlups": summarize(samples["mlups"]),
        "jobs_per_s": summarize(samples["jobs_per_s"]),
        "latency_p50_s": latency,
        "peak_rss_mb": summarize([peak_rss_mb()]),
    }
    return {
        "sizes": workload.sizes(),
        "deterministic": workload.deterministic,
        "repeats": len(samples["wall_s"]),
        "attempted": workload.operations + checks,
        "failed": workload.failed,
        "failures": workload.failures,
        "invalid": invalid,
        "summaries": summaries,
        "physics": workload.physics,
    }


if __name__ == "__main__":
    sys.exit(main())
