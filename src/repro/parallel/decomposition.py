"""Domain-decomposition bookkeeping for the parallel solver.

The paper's scheme is 1-D: axis 0 (x, the flow direction) is cut into
contiguous runs of planes, one per rank; every rank pads its slab with
one ghost plane on each side to receive neighbour boundary data (the
halo).  The physical domain is periodic along x, so the halo topology
is a ring even though the remapping topology (who balances with whom)
is the linear chain of the paper.

:class:`CartTopology` is the one vocabulary for it and for its 2-D
generalization: axis 0 is cut into *rows* bands of planes and the first
cross-section axis (axis 1, e.g. y) into *cols* bands of columns, so
each rank owns a rectangle.  ``rows × 1`` *is* the slab scheme — same
rank order, same neighbour rings — which the differential tests exploit
for bit-identity between the decompositions.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.util.validation import check_integer


def even_split(total: int, parts: int) -> list[int]:
    """Split *total* cells into *parts* contiguous bands, as evenly as
    possible (the first ``total % parts`` bands get one extra)."""
    check_integer(total, "total", minimum=1)
    check_integer(parts, "parts", minimum=1)
    base, extra = divmod(total, parts)
    if base < 1:
        raise ValueError(f"cannot split {total} cells into {parts} bands")
    return [base + (1 if p < extra else 0) for p in range(parts)]


def grid_for(ranks: int, shape: Sequence[int]) -> tuple[int, int]:
    """The most-square ``(rows, cols)`` factorization of *ranks* that
    fits *shape* (rows ≤ nx, cols ≤ the first cross extent); falls back
    toward the slab as the domain forces it."""
    check_integer(ranks, "ranks", minimum=1)
    nx = int(shape[0])
    ny = int(shape[1]) if len(shape) > 1 else 1
    best: tuple[int, int] | None = None
    for rows in range(1, ranks + 1):
        if ranks % rows:
            continue
        cols = ranks // rows
        if rows > nx or cols > ny:
            continue
        if best is None or abs(rows - cols) < abs(best[0] - best[1]):
            best = (rows, cols)
    if best is None:
        raise ValueError(
            f"no (rows, cols) factorization of {ranks} ranks fits the "
            f"{tuple(shape)} domain"
        )
    return best


class CartTopology:
    """2-D cartesian rank grid with explicit per-band ownership.

    Ranks are laid out row-major: ``rank = row * cols + col``.  A *row*
    is a band of x planes (axis 0 of the geometry), a *col* a band of
    columns along the first cross-section axis (axis 1).  Remaining axes
    (z in 3-D) are never decomposed.  Both axes are periodic rings, like
    the slab scheme's x ring.

    ``row_counts``/``col_counts`` are the per-band extents a run starts
    from; every rank in a row owns the same plane count (and likewise
    per column).  The topology is never updated: remapping moves whole
    bands, so the grid stays cartesian, and each rank tracks its own
    origin from there.
    """

    def __init__(self, row_counts: Sequence[int], col_counts: Sequence[int]):
        self._row_counts = [
            check_integer(c, "row plane count", minimum=1) for c in row_counts
        ]
        self._col_counts = [
            check_integer(c, "column count", minimum=1) for c in col_counts
        ]
        if not self._row_counts or not self._col_counts:
            raise ValueError("need at least one row and one column band")

    @classmethod
    def from_shape(
        cls, shape: Sequence[int], rows: int, cols: int
    ) -> "CartTopology":
        """Even decomposition of *shape* into a ``rows × cols`` grid."""
        if cols > 1 and len(shape) < 2:
            raise ValueError("a 2-D decomposition needs a cross-section axis")
        col_total = int(shape[1]) if len(shape) > 1 else 1
        return cls(even_split(int(shape[0]), rows), even_split(col_total, cols))

    # ------------------------------------------------------------- geometry
    @property
    def rows(self) -> int:
        return len(self._row_counts)

    @property
    def cols(self) -> int:
        return len(self._col_counts)

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @property
    def total_planes(self) -> int:
        return sum(self._row_counts)

    @property
    def total_cols(self) -> int:
        return sum(self._col_counts)

    def coords(self, rank: int) -> tuple[int, int]:
        self._check_rank(rank)
        return divmod(rank, self.cols)

    def rank_of(self, row: int, col: int) -> int:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        if not 0 <= col < self.cols:
            raise IndexError(f"col {col} out of range [0, {self.cols})")
        return row * self.cols + col

    def neighbour(self, rank: int, axis: int, step: int) -> int:
        """Ring neighbour *step* bands away along *axis* (0: x rows,
        1: cross columns) — both axes are periodic."""
        row, col = self.coords(rank)
        if axis == 0:
            return self.rank_of((row + step) % self.rows, col)
        if axis == 1:
            return self.rank_of(row, (col + step) % self.cols)
        raise ValueError(f"axis must be 0 or 1, got {axis}")

    # ------------------------------------------------------------ ownership
    def planes(self, row: int) -> int:
        return self._row_counts[row]

    def cols_of(self, col: int) -> int:
        return self._col_counts[col]

    def plane_start(self, row: int) -> int:
        return sum(self._row_counts[:row])

    def col_start(self, col: int) -> int:
        return sum(self._col_counts[:col])

    def rectangle(self, rank: int) -> tuple[int, int, int, int]:
        """This rank's global ownership rectangle as
        ``(plane_start, plane_count, col_start, col_count)`` — the tuple
        checkpoint shard manifests carry."""
        row, col = self.coords(rank)
        return (
            self.plane_start(row),
            self._row_counts[row],
            self.col_start(col),
            self._col_counts[col],
        )

    def row_counts(self) -> list[int]:
        return list(self._row_counts)

    def col_counts(self) -> list[int]:
        return list(self._col_counts)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} out of range [0, {self.size})")
