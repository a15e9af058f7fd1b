#!/usr/bin/env python3
"""The paper's entire story in one script.

1. Build the water/air hydrophobic microchannel (scaled).
2. Run it *in parallel* on an in-process cluster of ranks, with the
   filtered dynamic remapping active while one rank is artificially slow.
3. Verify the parallel physics is bitwise identical to a sequential run.
4. Measure the paper's observables (density depletion, apparent slip).
5. Replay the same scenario on the virtual-time cluster model to estimate
   the wall-clock the remapping would save on the paper's hardware.

    python examples/full_pipeline.py
"""

import numpy as np

from repro.cluster.machine import paper_cluster
from repro.cluster.simulator import simulate
from repro.cluster.workload import fixed_slow_traces
from repro.core import RemappingConfig, make_policy
from repro.experiments.channel import slip_pair
from repro.lbm.diagnostics import (
    apparent_slip_fraction,
    density_profile,
    velocity_profile,
)
from repro.api import RunSpec, run

N_RANKS = 4
PHASES = 3000  # enough for the 2-D profile to develop (H^2/nu ~ 10k; the
SLOW_RANK = 1  # residual transient slightly inflates the slip reading)


def main() -> None:
    forced, _ = slip_pair((16, 42), PHASES, amplitude=0.1)
    config = forced.config

    # --- parallel run with an injected slow rank -------------------------
    def load_fn(rank: int, phase: int, points: int) -> float:
        t = points * 1e-6
        return t / 0.35 if rank == SLOW_RANK else t

    print(f"running {PHASES} phases on {N_RANKS} in-process ranks "
          f"(rank {SLOW_RANK} slowed to 35%)...")
    result = run(RunSpec(
        config=config,
        phases=PHASES,
        ranks=N_RANKS,
        policy="filtered",
        remap_config=RemappingConfig(interval=10, history=10),
        load_time_fn=load_fn,
    ))
    by_rank = sorted(result.rank_results, key=lambda r: r.rank)
    print("final planes per rank:", [r.plane_count for r in by_rank])
    print(f"slow rank evacuated to {by_rank[SLOW_RANK].plane_count} plane(s), "
          f"sent {by_rank[SLOW_RANK].planes_sent} away")

    # --- bitwise physics check -------------------------------------------
    sequential = run(forced)
    identical = np.array_equal(result.f, sequential.f)
    print(f"parallel field bitwise equal to sequential: {identical}")

    # --- the paper's observables ------------------------------------------
    solver = result.solver()
    water = density_profile(solver, "water")
    slip = apparent_slip_fraction(velocity_profile(solver))
    print(f"water density wall/bulk: "
          f"{water.values[0] / np.median(water.values):.3f}")
    print(f"apparent slip: {100 * slip:.1f}% of free-stream "
          f"(paper reports ~10%)")

    # --- what the remapping buys on the paper's cluster -------------------
    print("\nvirtual-time replay on the paper's 20-node cluster "
          "(600 phases, node 9 with a 70% background job):")
    for policy in ("no-remap", "filtered"):
        spec = paper_cluster(fixed_slow_traces(20, [9]))
        t = simulate(spec, make_policy(policy), 600).total_time
        print(f"  {policy:>9}: {t:6.1f}s")


if __name__ == "__main__":
    main()
