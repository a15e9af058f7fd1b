"""The per-phase cost model, calibrated to the paper's own numbers.

Derivation of the defaults (see DESIGN.md section 5):

- ``cost_per_point``: the paper reports 43.56 h sequential for 20 000
  phases on a 400 x 200 x 20 grid -> 43.56*3600 / (2e4 * 1.6e6) = 4.90 us
  per lattice-point update.
- ``exchange*_bytes``: per phase each edge exchanges the distribution
  functions of both components in the 5 x-leaning directions over a
  200 x 20 cross-section (5 * 2 * 4000 * 8 B = 320 kB), then the number
  densities (2 * 4000 * 8 B = 64 kB).
- ``per_message_overhead``: fixed software/NIC cost per synchronization;
  12 ms reproduces the paper's dedicated 251 s for 600 phases on 20 nodes
  (0.392 s compute + 2 syncs/phase).
- ``sched_delay``: a message endpoint whose node runs a background job
  responds late — the Linux scheduler delays the compute-hungry MPI
  process's wakeups while the competing job holds the CPU; a nearly-empty
  rank blocks in recv and gets priority-boosted instead.  Modeled as
  ``sched_delay * (1 - availability) * min(1, points/avg_points)``;
  0.04 s closes the gap to the paper's 717 s no-remapping run.
- ``collective_penalty``: extra cost a busy node adds to an all-node
  collective (the global scheme's information exchange).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class PhaseCostModel:
    """All timing constants of the virtual cluster.

    Compute fractions split one phase's work into the chunk before the
    distribution-function exchange (collision + streaming), the chunk
    between the two exchanges (bounce-back + yz boundary), and the final
    chunk (force + velocity), mirroring Figure 2.
    """

    cost_per_point: float = 4.9e-6
    compute_fractions: tuple[float, float, float] = (0.70, 0.10, 0.20)
    exchange1_bytes: float = 320_000.0
    exchange2_bytes: float = 64_000.0
    plane_bytes: float = 1_216_000.0  # 4000 pts * 19 dirs * 2 comps * 8 B
    bandwidth: float = 125e6  # gigabit Ethernet payload rate, B/s
    latency: float = 1e-4
    per_message_overhead: float = 12e-3
    sched_delay: float = 0.04
    collective_penalty: float = 1.5
    load_index_bytes: float = 64.0

    def __post_init__(self) -> None:
        check_positive(self.cost_per_point, "cost_per_point")
        fracs = tuple(float(f) for f in self.compute_fractions)
        if len(fracs) != 3 or any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(
                f"compute_fractions must be 3 non-negative numbers summing to 1, "
                f"got {self.compute_fractions}"
            )
        object.__setattr__(self, "compute_fractions", fracs)
        check_nonnegative(self.exchange1_bytes, "exchange1_bytes")
        check_nonnegative(self.exchange2_bytes, "exchange2_bytes")
        check_positive(self.plane_bytes, "plane_bytes")
        check_positive(self.bandwidth, "bandwidth")
        check_nonnegative(self.latency, "latency")
        check_nonnegative(self.per_message_overhead, "per_message_overhead")
        check_nonnegative(self.sched_delay, "sched_delay")
        check_nonnegative(self.collective_penalty, "collective_penalty")
        check_nonnegative(self.load_index_bytes, "load_index_bytes")

    # ------------------------------------------------------------- helpers
    def compute_work(self, points: int) -> float:
        """Full-speed seconds to update *points* lattice points once."""
        return points * self.cost_per_point

    def wire_time(self, size_bytes: float) -> float:
        """Latency + serialization for one message."""
        return self.latency + size_bytes / self.bandwidth

    def sched_penalty(self, availability: float, load_ratio: float) -> float:
        """Endpoint scheduling delay for a message touching a node with the
        given instantaneous *availability* and compute-load ratio
        (points / average points, capped at 1)."""
        busy = 1.0 - availability
        if busy <= 0.0:
            return 0.0
        return self.sched_delay * busy * min(1.0, max(0.0, load_ratio))

    def edge_cost(
        self,
        size_bytes: float,
        avail_i: float,
        avail_j: float,
        load_ratio_i: float,
        load_ratio_j: float,
    ) -> float:
        """Total cost of one neighbour exchange across an edge."""
        return (
            self.per_message_overhead
            + self.wire_time(size_bytes)
            + self.sched_penalty(avail_i, load_ratio_i)
            + self.sched_penalty(avail_j, load_ratio_j)
        )

    def collective_cost(self, availabilities: list[float]) -> float:
        """Cost of one all-node information exchange (the global scheme):
        every node contributes a message overhead, and every busy node adds
        its scheduling delay to the collective's critical path."""
        cost = 0.0
        for avail in availabilities:
            cost += self.per_message_overhead
            cost += self.collective_penalty * (1.0 - avail)
        return cost

    def migration_cost(
        self,
        planes: int,
        avail_i: float,
        avail_j: float,
        load_ratio_i: float,
        load_ratio_j: float,
    ) -> float:
        """Cost of shipping *planes* lattice planes across one edge."""
        if planes <= 0:
            return 0.0
        return self.edge_cost(
            planes * self.plane_bytes, avail_i, avail_j, load_ratio_i, load_ratio_j
        )


#: Defaults calibrated against the paper's reported constants.
PAPER_COST_MODEL = PhaseCostModel()
