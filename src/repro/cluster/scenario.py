"""Declarative cluster availability setups and the cluster CLI.

An :class:`AvailabilitySetup` names a workload, a policy and phase
count, and powers the command line::

    python -m repro.cluster --workload fixed-slow --slow-nodes 9 3 \\
        --policy filtered --phases 600
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.cluster.machine import ClusterSpec, paper_cluster
from repro.cluster.simulator import SimulationResult, simulate
from repro.cluster.workload import (
    dedicated_traces,
    delayed_slow_traces,
    duty_cycle_trace,
    fixed_slow_traces,
    heterogeneous_traces,
    transient_spike_traces,
)
from repro.core.policies import POLICY_NAMES, make_policy
from repro.util.validation import check_integer

WORKLOADS = (
    "dedicated",
    "fixed-slow",
    "duty-cycle",
    "transient-spikes",
    "heterogeneous",
    "delayed-slow",
)


@dataclass(frozen=True)
class AvailabilitySetup:
    """One cluster simulation configuration.

    Attributes
    ----------
    workload:
        One of :data:`WORKLOADS`.
    policy:
        One of :data:`repro.core.policies.POLICY_NAMES`.
    phases:
        LBM phases to simulate.
    n_nodes:
        Cluster size (paper: 20).
    params:
        Workload-specific parameters (slow_nodes, duty, spike_length,
        speeds, onset, seed, jitter).
    """

    workload: str = "fixed-slow"
    policy: str = "filtered"
    phases: int = 600
    n_nodes: int = 20
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; available: {WORKLOADS}"
            )
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {self.policy!r}; available: {POLICY_NAMES}"
            )
        check_integer(self.phases, "phases", minimum=1)
        check_integer(self.n_nodes, "n_nodes", minimum=1)

    # ------------------------------------------------------------- traces
    def build_traces(self):
        p = self.params
        n = self.n_nodes
        if self.workload == "dedicated":
            return dedicated_traces(n)
        if self.workload == "fixed-slow":
            return fixed_slow_traces(
                n,
                p.get("slow_nodes", [9]),
                busy_availability=p.get("busy_availability", 0.35),
                jitter=p.get("jitter", 0.0),
                seed=p.get("seed", 0),
            )
        if self.workload == "duty-cycle":
            traces = dedicated_traces(n)
            node = p.get("node", 9)
            traces[node] = duty_cycle_trace(
                p.get("duty", 0.7),
                busy_availability=p.get("busy_availability", 0.35),
            )
            return traces
        if self.workload == "transient-spikes":
            return transient_spike_traces(
                n,
                p.get("spike_length", 2.0),
                busy_availability=p.get("busy_availability", 0.35),
                seed=p.get("seed", 42),
            )
        if self.workload == "heterogeneous":
            speeds = p.get("speeds")
            if speeds is None:
                n_slow = p.get("n_slow", n // 2)
                speeds = [1.0] * (n - n_slow) + [
                    p.get("slow_speed", 0.5)
                ] * n_slow
            return heterogeneous_traces(speeds)
        if self.workload == "delayed-slow":
            return delayed_slow_traces(
                n,
                p.get("node", 9),
                p.get("onset", 50.0),
                busy_availability=p.get("busy_availability", 0.35),
            )
        raise AssertionError("unreachable")

    def build_spec(self) -> ClusterSpec:
        return paper_cluster(self.build_traces(), n_nodes=self.n_nodes)

    def run(self) -> SimulationResult:
        return simulate(self.build_spec(), make_policy(self.policy), self.phases)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Simulate the slice-decomposed parallel LBM on a "
        "virtual non-dedicated cluster.",
    )
    parser.add_argument("--workload", choices=WORKLOADS, default="fixed-slow")
    parser.add_argument("--policy", choices=POLICY_NAMES, default="filtered")
    parser.add_argument("--phases", type=int, default=600)
    parser.add_argument("--n-nodes", type=int, default=20)
    parser.add_argument(
        "--slow-nodes", type=int, nargs="*", default=[9],
        help="fixed-slow workload: which nodes run background jobs",
    )
    parser.add_argument("--duty", type=float, default=0.7)
    parser.add_argument("--spike-length", type=float, default=2.0)
    parser.add_argument("--jitter", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--profile", action="store_true", help="print the per-node profile"
    )
    args = parser.parse_args(argv)

    setup = AvailabilitySetup(
        workload=args.workload,
        policy=args.policy,
        phases=args.phases,
        n_nodes=args.n_nodes,
        params={
            "slow_nodes": args.slow_nodes,
            "duty": args.duty,
            "spike_length": args.spike_length,
            "jitter": args.jitter,
            "seed": args.seed,
        },
    )
    result = setup.run()
    print(f"workload={args.workload} policy={args.policy} phases={args.phases}")
    print(f"total time: {result.total_time:.1f}s")
    print(f"planes moved: {result.planes_moved}")
    print(f"final partition: {result.final_plane_counts}")
    if args.profile:
        print()
        print(result.profile.to_table(title="per-node profile"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
