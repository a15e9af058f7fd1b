#!/usr/bin/env python3
"""A fully traced parallel slip run: every phase timed, every halo byte
counted, every migration decision logged to a JSONL trace.

Runs the water/air microchannel on in-process ranks with one rank
artificially slowed so the filtered remapping policy has work to do,
writes the observability trace, then renders the paper-style summary
(per-rank execution profile, migration bookkeeping, per-kernel timings)
straight from the trace file.

    python examples/traced_parallel_run.py [--trace run.jsonl]
        [--ranks 4] [--phases 200] [--backend fused]
        [--transport threads|processes]

Inspect the result afterwards with:

    python -m repro.obs.report summary run.jsonl
    python -m repro.obs.report compare run.jsonl baseline.jsonl
"""

import argparse
import dataclasses

from repro.api import RunSpec, run
from repro.core import RemappingConfig
from repro.experiments.channel import slip_pair
from repro.obs.report import render_summary
from repro.obs.sink import read_trace

SLOW_RANK = 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default="run.jsonl",
                        help="JSONL trace output path (default run.jsonl)")
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--phases", type=int, default=200)
    parser.add_argument("--backend", default="fused",
                        choices=("fused", "reference"))
    parser.add_argument("--transport", default="threads",
                        choices=("threads", "processes"),
                        help="parallel transport (default threads)")
    args = parser.parse_args()

    forced, _ = slip_pair((16, 42), args.phases, amplitude=0.1)
    config = dataclasses.replace(forced.config, backend=args.backend)

    def load_fn(rank: int, phase: int, points: int) -> float:
        t = points * 1e-6
        return t / 0.35 if rank == SLOW_RANK else t

    print(f"running {args.phases} phases on {args.ranks} {args.transport} "
          f"ranks ({args.backend} backend, rank {SLOW_RANK} slowed to 35%), "
          f"tracing to {args.trace}...")
    result = run(RunSpec(
        config=config,
        phases=args.phases,
        ranks=args.ranks,
        transport=args.transport,
        policy="filtered",
        remap_config=RemappingConfig(interval=10, history=10),
        load_time_fn=load_fn,
        trace_path=args.trace,
    ))
    by_rank = sorted(result.rank_results, key=lambda r: r.rank)
    print("final planes per rank:", [r.plane_count for r in by_rank])

    events = read_trace(args.trace)
    counts: dict[str, int] = {}
    for ev in events:
        counts[ev["type"]] = counts.get(ev["type"], 0) + 1
    print(f"\ntrace: {len(events)} events "
          + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    assert counts.get("migrate", 0) >= 1, "slow rank should force migration"

    print()
    print(render_summary(events))
    print(f"\ntrace written to {args.trace} — diff against another run with "
          f"`python -m repro.obs.report compare`")


if __name__ == "__main__":
    main()
