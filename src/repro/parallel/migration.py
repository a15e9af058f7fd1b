"""Plane migration: serializing lattice planes for transfer between ranks.

A migration package carries the raw populations of *k* contiguous interior
x planes taken from one side of a slab.  Moments, forces and equilibrium
velocities are recomputed by the receiver (cheaper than shipping them, and
it keeps a single source of truth).

Every helper works on axis 2 of ``f`` (shape ``(C, Q, ln+2, *cross)``):
the x planes, with one ghost plane at index 0 and one at -1.
"""

from __future__ import annotations

import numpy as np

#: The x axis of ``f``: the one axis that carries ghost planes.
X_AXIS = 2


def interior_of(f: np.ndarray) -> np.ndarray:
    """View of *f* without its two ghost planes."""
    return f[:, :, 1:-1]


def pad_with_ghosts(interior: np.ndarray) -> np.ndarray:
    """Wrap an interior block with two zeroed ghost planes (refilled by
    the next halo exchange before use)."""
    shape = list(interior.shape)
    shape[X_AXIS] += 2
    out = np.zeros(shape, dtype=interior.dtype)
    interior_of(out)[...] = interior
    return out


def pack_band(f: np.ndarray, side: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Split *k* interior planes off one side of a padded slab.

    Parameters
    ----------
    f:
        Local populations, shape ``(C, Q, ln+2, *cross)``.
    side:
        ``"low"`` takes the lowest-index interior planes (to send to the
        low neighbour), ``"high"`` the highest-index ones.
    k:
        Number of planes to extract (1 <= k <= ln - 1; a rank always
        keeps at least one interior plane).

    Returns
    -------
    (package, remainder): the extracted planes — interior data only, no
    ghosts — and a new padded slab with fresh (zeroed) ghosts.
    """
    _check_side(side)
    interior = interior_of(f)
    n = interior.shape[X_AXIS]
    if not 1 <= k <= n - 1:
        raise ValueError(f"cannot extract {k} of {n} interior planes")
    if side == "low":
        take, keep = interior[:, :, :k], interior[:, :, k:]
    else:
        take, keep = interior[:, :, n - k :], interior[:, :, : n - k]
    return np.ascontiguousarray(take), pad_with_ghosts(keep)


def unpack_band(f: np.ndarray, package: np.ndarray, side: str) -> np.ndarray:
    """Attach received planes to one side of a padded slab; returns a new
    padded array (both ghosts zeroed, refilled at the next halo
    exchange)."""
    _check_side(side)
    interior = interior_of(f)
    expect = list(interior.shape)
    expect[X_AXIS] = package.shape[X_AXIS]
    if list(package.shape) != expect:
        raise ValueError(
            f"package shape {package.shape} incompatible with slab "
            f"{interior.shape}"
        )
    parts = [package, interior] if side == "low" else [interior, package]
    return pad_with_ghosts(np.concatenate(parts, axis=X_AXIS))


def _check_side(side: str) -> None:
    if side not in ("low", "high"):
        raise ValueError(f"side must be 'low' or 'high', got {side!r}")
