"""Lattice descriptors (velocity sets) for the LBM.

The paper uses the D3Q19 model (Figure 1: "each node has 19 different
possible movement directions").  We also provide D2Q9 for fast validation
runs and tests; every kernel in this package is written against the generic
:class:`Lattice` descriptor and works for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Lattice:
    """A discrete velocity set.

    Attributes
    ----------
    name:
        Conventional DdQq name, e.g. ``"D3Q19"``.
    c:
        Integer velocity vectors, shape ``(Q, D)``.
    w:
        Quadrature weights, shape ``(Q,)``; sum to 1.
    cs2:
        Squared lattice speed of sound (1/3 for both supported sets).
    opp:
        Index of the opposite direction for each direction, shape ``(Q,)``.
    cf:
        ``c`` as float64 (precomputed so hot kernels never pay a per-call
        ``astype`` copy), shape ``(Q, D)``.
    shifts:
        Per-direction integer shift tuples for ``np.roll``-style
        propagation, precomputed once (tuple of Q tuples of D ints).
    moving:
        Indices of the directions with a nonzero velocity, shape
        ``(Q - n_rest,)`` — the only directions streaming has to touch.
    moving_opp:
        Permutation *within* :attr:`moving`: ``moving[moving_opp[i]]`` is
        the opposite of ``moving[i]`` (used by bounce-back to skip the
        rest population entirely).
    """

    name: str
    c: np.ndarray
    w: np.ndarray
    cs2: float = 1.0 / 3.0
    opp: np.ndarray = field(init=False)
    cf: np.ndarray = field(init=False)
    shifts: tuple[tuple[int, ...], ...] = field(init=False)
    moving: np.ndarray = field(init=False)
    moving_opp: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=np.int64)
        w = np.asarray(self.w, dtype=np.float64)
        if c.ndim != 2:
            raise ValueError(f"c must be 2-D (Q, D), got shape {c.shape}")
        if w.shape != (c.shape[0],):
            raise ValueError(f"w must have shape ({c.shape[0]},), got {w.shape}")
        if not np.isclose(w.sum(), 1.0):
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        opp = _opposite_indices(c)
        cf = c.astype(np.float64)
        shifts = tuple(tuple(int(s) for s in ck) for ck in c)
        moving = np.flatnonzero(c.any(axis=1))
        # Position of each moving direction's opposite inside `moving`.
        pos = {int(k): i for i, k in enumerate(moving)}
        moving_opp = np.array([pos[int(opp[k])] for k in moving], dtype=np.int64)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "opp", opp)
        object.__setattr__(self, "cf", cf)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "moving", moving)
        object.__setattr__(self, "moving_opp", moving_opp)
        for arr in (c, w, opp, cf, moving, moving_opp):
            arr.setflags(write=False)

    @property
    def Q(self) -> int:
        """Number of discrete velocities."""
        return self.c.shape[0]

    @property
    def D(self) -> int:
        """Spatial dimension."""
        return self.c.shape[1]

    def directions_with(self, axis: int, sign: int) -> np.ndarray:
        """Indices k with ``sign(c[k, axis]) == sign`` (sign in {-1, 0, +1}).

        Used by the halo-exchange plan: the populations that must be sent to
        the right neighbour are exactly those with ``c_x > 0`` (the paper's
        directions 1..5 for its numbering), and to the left those with
        ``c_x < 0``.
        """
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
        if not 0 <= axis < self.D:
            raise ValueError(f"axis must be in [0, {self.D}), got {axis}")
        return np.flatnonzero(np.sign(self.c[:, axis]) == sign)


def _opposite_indices(c: np.ndarray) -> np.ndarray:
    """For each velocity, find the index of its negation."""
    q = c.shape[0]
    opp = np.full(q, -1, dtype=np.int64)
    for k in range(q):
        matches = np.flatnonzero((c == -c[k]).all(axis=1))
        if matches.size != 1:
            raise ValueError(f"velocity set is not symmetric at index {k}")
        opp[k] = matches[0]
    return opp


def _build_d2q9() -> Lattice:
    c = [
        (0, 0),
        (1, 0), (-1, 0), (0, 1), (0, -1),
        (1, 1), (-1, -1), (1, -1), (-1, 1),
    ]
    w = [4 / 9] + [1 / 9] * 4 + [1 / 36] * 4
    return Lattice("D2Q9", np.array(c), np.array(w))


def _build_d3q19() -> Lattice:
    axis = [
        (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0),
        (0, 0, 1), (0, 0, -1),
    ]
    diag = [
        (1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0),
        (1, 0, 1), (-1, 0, -1), (1, 0, -1), (-1, 0, 1),
        (0, 1, 1), (0, -1, -1), (0, 1, -1), (0, -1, 1),
    ]
    c = [(0, 0, 0)] + axis + diag
    w = [1 / 3] + [1 / 18] * 6 + [1 / 36] * 12
    return Lattice("D3Q19", np.array(c), np.array(w))


D2Q9 = _build_d2q9()
D3Q19 = _build_d3q19()
