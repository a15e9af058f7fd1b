"""Plane-granular 1-D slice partition of the lattice.

The channel is decomposed along x into contiguous runs of yz-planes, one
run per node (the paper's "cubics").  A partition is fully described by
the number of planes each node owns; migration moves whole planes across
the edges of the linear node array, so contiguity is preserved by
construction.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.util.validation import check_integer


class SlicePartition:
    """Ownership of x-planes by the P nodes of a linear array.

    Parameters
    ----------
    plane_counts:
        Planes owned by each node, in node order; all >= min_planes.
    plane_points:
        Lattice points per plane (ny * nz); converts plane counts to the
        point counts the paper's formulas use (e.g. the 4000-point
        threshold is one 200 x 20 plane).
    min_planes:
        Smallest allowed allocation per node (>= 1: a node must keep at
        least one plane so halo exchange stays well-defined).
    """

    def __init__(
        self,
        plane_counts: Sequence[int],
        plane_points: int,
        *,
        min_planes: int = 1,
    ):
        counts = [check_integer(c, "plane count", minimum=0) for c in plane_counts]
        if not counts:
            raise ValueError("partition needs at least one node")
        self.plane_points = check_integer(plane_points, "plane_points", minimum=1)
        self.min_planes = check_integer(min_planes, "min_planes", minimum=1)
        for i, c in enumerate(counts):
            if c < self.min_planes:
                raise ValueError(
                    f"node {i} has {c} planes, below min_planes={self.min_planes}"
                )
        self._counts = np.array(counts, dtype=np.int64)

    # --------------------------------------------------------------- factory
    @classmethod
    def even(
        cls,
        total_planes: int,
        n_nodes: int,
        plane_points: int,
        *,
        min_planes: int = 1,
    ) -> "SlicePartition":
        """Initial even distribution (Figure 4-a): nodes get
        floor/ceil(total/P) planes, the remainder spread from node 0."""
        total_planes = check_integer(total_planes, "total_planes", minimum=1)
        n_nodes = check_integer(n_nodes, "n_nodes", minimum=1)
        base, extra = divmod(total_planes, n_nodes)
        if base < min_planes:
            raise ValueError(
                f"cannot split {total_planes} planes over {n_nodes} nodes "
                f"with min_planes={min_planes}"
            )
        counts = [base + (1 if i < extra else 0) for i in range(n_nodes)]
        return cls(counts, plane_points, min_planes=min_planes)

    # ------------------------------------------------------------ properties
    @property
    def n_nodes(self) -> int:
        return int(self._counts.size)

    @property
    def total_planes(self) -> int:
        return int(self._counts.sum())

    def planes(self, node: int) -> int:
        """Planes owned by *node*."""
        return int(self._counts[node])

    def plane_counts(self) -> np.ndarray:
        """Copy of the per-node plane counts."""
        return self._counts.copy()

    def point_counts(self) -> np.ndarray:
        """Per-node lattice-point counts (the paper's n_i)."""
        return self._counts * self.plane_points

    def points(self, node: int) -> int:
        return int(self._counts[node]) * self.plane_points

    # -------------------------------------------------------------- mutation
    def apply_edge_flows(self, flows: Sequence[int]) -> None:
        """Apply migration: ``flows[i]`` planes move from node i to node
        i+1 (negative values move the other way).  The caller (policy /
        conflict resolution) is responsible for producing feasible flows;
        infeasible flows (driving a node below min_planes) raise
        ``ValueError`` and leave the partition unchanged.
        """
        flows_arr = np.asarray(list(flows), dtype=np.int64)
        if flows_arr.shape != (self.n_nodes - 1,):
            raise ValueError(
                f"need {self.n_nodes - 1} edge flows, got {flows_arr.shape}"
            )
        new_counts = self._counts.copy()
        new_counts[:-1] -= flows_arr
        new_counts[1:] += flows_arr
        if (new_counts < self.min_planes).any():
            bad = int(np.argmin(new_counts))
            raise ValueError(
                f"edge flows would leave node {bad} with {int(new_counts[bad])} "
                f"planes (min {self.min_planes})"
            )
        self._counts = new_counts

    def max_outflow(self, node: int) -> int:
        """Most planes *node* may shed in one remap step while keeping
        min_planes."""
        return max(0, int(self._counts[node]) - self.min_planes)

    def copy(self) -> "SlicePartition":
        return SlicePartition(
            self._counts.tolist(), self.plane_points, min_planes=self.min_planes
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlicePartition):
            return NotImplemented
        return (
            self.plane_points == other.plane_points
            and self.min_planes == other.min_planes
            and bool(np.array_equal(self._counts, other._counts))
        )

    def __repr__(self) -> str:
        return (
            f"SlicePartition(counts={self._counts.tolist()}, "
            f"plane_points={self.plane_points})"
        )
