"""Static decomposition analysis: slice vs. box vs. cubic partitioning.

The paper (and the prior work it cites — Skordos; Kandhai et al.) divides
the grid into equal sub-volumes by slicing along one axis, boxes in two
axes, or cubes in three.  The paper picks 1-D slices along x "because of
the special geometry in our application (the x direction is much longer
than y and z)".  This module quantifies that choice: halo surface area,
neighbour counts, and estimated per-phase communication cost for every
feasible processor-grid factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.costmodel import PhaseCostModel
from repro.util.validation import check_integer


def factorizations(p: int, dims: int) -> list[tuple[int, ...]]:
    """All ordered factorizations of *p* into *dims* positive factors."""
    check_integer(p, "p", minimum=1)
    check_integer(dims, "dims", minimum=1)
    if dims == 1:
        return [(p,)]
    out = []
    for first in range(1, p + 1):
        if p % first:
            continue
        for rest in factorizations(p // first, dims - 1):
            out.append((first, *rest))
    return out


@dataclass(frozen=True)
class DecompositionPlan:
    """One processor-grid assignment for a structured grid.

    Attributes
    ----------
    grid_shape:
        Lattice extent per axis.
    proc_grid:
        Processors per axis; ``prod(proc_grid) = P``.
    """

    grid_shape: tuple[int, ...]
    proc_grid: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.grid_shape) != len(self.proc_grid):
            raise ValueError("grid_shape and proc_grid must match in length")
        for n, p in zip(self.grid_shape, self.proc_grid):
            check_integer(n, "grid extent", minimum=1)
            check_integer(p, "processors per axis", minimum=1)
            if p > n:
                raise ValueError(
                    f"cannot split extent {n} across {p} processors"
                )

    @property
    def n_processors(self) -> int:
        return int(np.prod(self.proc_grid))

    @property
    def kind(self) -> str:
        """slice / box / cubic, by how many axes are actually cut."""
        cut_axes = sum(1 for p in self.proc_grid if p > 1)
        return {0: "trivial", 1: "slice", 2: "box"}.get(cut_axes, "cubic")

    def subdomain_shape(self) -> tuple[float, ...]:
        """Average subdomain extent per axis (may be fractional)."""
        return tuple(n / p for n, p in zip(self.grid_shape, self.proc_grid))

    def halo_surface(self) -> float:
        """Lattice points on the halo surface of one (interior) subdomain:
        two faces per cut axis."""
        sub = self.subdomain_shape()
        surface = 0.0
        for axis, p in enumerate(self.proc_grid):
            if p == 1:
                continue  # periodic within the node; no exchange
            face = np.prod([s for a, s in enumerate(sub) if a != axis])
            surface += 2.0 * float(face)
        return surface

    def neighbour_count(self) -> int:
        """Face-neighbours of an interior subdomain (LBM halo partners;
        edge/corner links ride along with face exchanges for D3Q19)."""
        return 2 * sum(1 for p in self.proc_grid if p > 1)

    def phase_comm_cost(
        self, cost_model: PhaseCostModel, bytes_per_point: float
    ) -> float:
        """Estimated per-phase communication time of one node: one message
        per face plus the serialized halo bytes."""
        cost = 0.0
        sub = self.subdomain_shape()
        for axis, p in enumerate(self.proc_grid):
            if p == 1:
                continue
            face = float(np.prod([s for a, s in enumerate(sub) if a != axis]))
            per_face = cost_model.per_message_overhead + cost_model.wire_time(
                face * bytes_per_point
            )
            cost += 2.0 * per_face
        return cost


def enumerate_plans(
    grid_shape: tuple[int, ...], n_processors: int
) -> list[DecompositionPlan]:
    """Every feasible processor-grid factorization for the grid."""
    plans = []
    for proc_grid in factorizations(n_processors, len(grid_shape)):
        try:
            plans.append(DecompositionPlan(grid_shape, proc_grid))
        except ValueError:
            continue  # more processors than extent on some axis
    if not plans:
        raise ValueError(
            f"no feasible decomposition of {grid_shape} over "
            f"{n_processors} processors"
        )
    return plans


def best_plan(
    grid_shape: tuple[int, ...],
    n_processors: int,
    *,
    by: str = "surface",
    cost_model: PhaseCostModel | None = None,
    bytes_per_point: float = 80.0,
) -> DecompositionPlan:
    """The factorization minimizing halo *surface* or estimated comm
    *cost* (messages + bytes — latency-heavy networks often prefer fewer,
    larger messages, i.e. slices)."""
    plans = enumerate_plans(grid_shape, n_processors)
    if by == "surface":
        return min(plans, key=lambda p: (p.halo_surface(), p.neighbour_count()))
    if by == "cost":
        if cost_model is None:
            cost_model = PhaseCostModel()
        return min(
            plans,
            key=lambda p: p.phase_comm_cost(cost_model, bytes_per_point),
        )
    raise ValueError(f"by must be 'surface' or 'cost', got {by!r}")


def compare_kinds(
    grid_shape: tuple[int, ...],
    n_processors: int,
    *,
    cost_model: PhaseCostModel | None = None,
    bytes_per_point: float = 80.0,
) -> dict[str, DecompositionPlan]:
    """The best plan of each kind (slice / box / cubic) that exists for
    this grid and processor count — the paper's Section 2.2 comparison."""
    if cost_model is None:
        cost_model = PhaseCostModel()
    best: dict[str, DecompositionPlan] = {}
    for plan in enumerate_plans(grid_shape, n_processors):
        kind = plan.kind
        if kind == "trivial":
            continue
        cost = plan.phase_comm_cost(cost_model, bytes_per_point)
        if kind not in best or cost < best[kind].phase_comm_cost(
            cost_model, bytes_per_point
        ):
            best[kind] = plan
    return best
