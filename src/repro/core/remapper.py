"""The remapping orchestrator: ties histories, prediction, policy and
partition together.

Both execution substrates drive a :class:`Remapper` the same way: after
every phase they feed the per-node computation times in, and every
``config.interval`` phases the remapper predicts load indices, asks the
policy for edge flows, applies them to the partition, and reports what
moved so the caller can charge (simulator) or perform (parallel driver)
the data transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.history import PhaseTimeHistory
from repro.core.partition import SlicePartition
from repro.core.policies import RemappingConfig, RemappingPolicy
from repro.obs.observer import NULL_OBSERVER


@dataclass(frozen=True)
class RemapDecision:
    """Outcome of one remap attempt.

    Attributes
    ----------
    phase:
        Phase index (1-based count of completed phases) at which the
        attempt ran.
    attempted:
        False when the phase was not on a remap boundary or histories were
        still empty.
    flows:
        Plane flows per edge (length P-1), positive = rightward; all zero
        when nothing moved.
    predicted_times:
        The load indices used (empty array when not attempted).
    planes_moved:
        Total planes that crossed an edge (sum of absolute flows).
    """

    phase: int
    attempted: bool
    flows: np.ndarray
    predicted_times: np.ndarray
    planes_moved: int

    @property
    def moved(self) -> bool:
        return self.planes_moved > 0


class Remapper:
    """Stateful driver of one remapping policy over a partition."""

    def __init__(
        self,
        partition: SlicePartition,
        policy: RemappingPolicy,
        observer=NULL_OBSERVER,
    ):
        self.partition = partition
        self.policy = policy
        self.observer = observer
        self.config: RemappingConfig = policy.config
        self.histories = [
            PhaseTimeHistory(self.config.history)
            for _ in range(partition.n_nodes)
        ]
        self.phases_seen = 0
        self.decisions: list[RemapDecision] = []

    def record_phase(self, comp_times: np.ndarray) -> None:
        """Record one phase's per-node computation times."""
        comp_times = np.asarray(comp_times, dtype=np.float64)
        if comp_times.shape != (self.partition.n_nodes,):
            raise ValueError(
                f"need {self.partition.n_nodes} computation times, "
                f"got {comp_times.shape}"
            )
        for hist, t in zip(self.histories, comp_times):
            hist.record(float(t))
        self.phases_seen += 1

    def due(self) -> bool:
        """True when the current phase count sits on a remap boundary."""
        return (
            self.phases_seen > 0
            and self.phases_seen % self.config.interval == 0
        )

    def predicted_times(self) -> np.ndarray:
        """Current load index per node."""
        return np.array(
            [self.config.predictor.predict(h) for h in self.histories]
        )

    def attempt(self) -> RemapDecision:
        """Run one remap attempt now (regardless of :meth:`due`); applies
        any resulting flows to the partition."""
        if any(len(h) == 0 for h in self.histories):
            decision = RemapDecision(
                phase=self.phases_seen,
                attempted=False,
                flows=np.zeros(self.partition.n_nodes - 1, dtype=np.int64),
                predicted_times=np.array([]),
                planes_moved=0,
            )
            self.decisions.append(decision)
            return decision
        times = self.predicted_times()
        flows = self.policy.decide(self.partition, times)
        if flows.any():
            self.partition.apply_edge_flows(flows)
        decision = RemapDecision(
            phase=self.phases_seen,
            attempted=True,
            flows=flows,
            predicted_times=times,
            planes_moved=int(np.abs(flows).sum()),
        )
        self.decisions.append(decision)
        if self.observer.enabled:
            self.observer.emit(
                "remap_decision",
                phase=self.phases_seen,
                policy=self.policy.name,
                flows=[int(x) for x in flows],
                predicted_times=[float(t) for t in times],
                planes_moved=decision.planes_moved,
                plane_counts=self.partition.plane_counts().tolist(),
            )
            if decision.planes_moved:
                self.observer.counter("migration.planes").add(
                    decision.planes_moved
                )
        return decision

    def total_planes_moved(self) -> int:
        """Cumulative migration volume (planes) across all decisions."""
        return sum(d.planes_moved for d in self.decisions)
