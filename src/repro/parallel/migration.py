"""Band migration: serializing lattice planes (or cross-section columns)
for transfer between ranks.

A migration package carries the raw populations of *k* contiguous interior
bands taken from one side of a subdomain.  Moments, forces and equilibrium
velocities are recomputed by the receiver (cheaper than shipping them, and
it keeps a single source of truth).

Every helper takes *padded*: the axes of ``f`` that carry ghost cells at
index 0 and -1 — ``(2,)`` for a 1-D slab (x planes only), ``(2, 3)`` for
a 2-D rectangle (x planes and y columns).
"""

from __future__ import annotations

import numpy as np


def interior_of(f: np.ndarray, padded: tuple[int, ...]) -> np.ndarray:
    """View of *f* without the ghost cells of its *padded* axes."""
    index = [slice(None)] * f.ndim
    for axis in padded:
        index[axis] = slice(1, -1)
    return f[tuple(index)]


def pad_with_ghosts(interior: np.ndarray, padded: tuple[int, ...]) -> np.ndarray:
    """Wrap an interior block with zeroed ghost cells on the *padded*
    axes (refilled by the next halo exchange before use)."""
    shape = list(interior.shape)
    for axis in padded:
        shape[axis] += 2
    out = np.zeros(shape, dtype=interior.dtype)
    interior_of(out, padded)[...] = interior
    return out


def pack_band(
    f: np.ndarray, axis: int, side: str, k: int, padded: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Split *k* interior bands off one side of a padded subdomain.

    Parameters
    ----------
    f:
        Local populations, shape ``(C, Q, ln+2, *cross)`` (slab) or
        ``(C, Q, ln+2, lc+2, *rest)`` (rectangle).
    axis:
        The padded axis to take bands from: 2 (x planes) or 3 (y columns).
    side:
        ``"low"`` takes the lowest-index interior bands (to send to the
        low neighbour), ``"high"`` the highest-index ones.
    k:
        Number of bands to extract (1 <= k <= n - 1; a rank always keeps
        at least one interior band).

    Returns
    -------
    (package, remainder): the extracted bands — interior data only, no
    ghosts on any axis — and a new padded subdomain with fresh (zeroed)
    ghosts all round.
    """
    _check_band_args(axis, side, padded)
    interior = interior_of(f, padded)
    n = interior.shape[axis]
    if not 1 <= k <= n - 1:
        raise ValueError(
            f"cannot extract {k} of {n} interior bands along axis {axis}"
        )
    take = [slice(None)] * interior.ndim
    keep = [slice(None)] * interior.ndim
    if side == "low":
        take[axis] = slice(0, k)
        keep[axis] = slice(k, None)
    else:
        take[axis] = slice(n - k, None)
        keep[axis] = slice(0, n - k)
    package = np.ascontiguousarray(interior[tuple(take)])
    return package, pad_with_ghosts(interior[tuple(keep)], padded)


def unpack_band(
    f: np.ndarray,
    package: np.ndarray,
    axis: int,
    side: str,
    padded: tuple[int, ...],
) -> np.ndarray:
    """Attach received bands to one side of a padded subdomain; returns a
    new padded array (all ghosts zeroed, refilled at the next halo
    exchange)."""
    _check_band_args(axis, side, padded)
    interior = interior_of(f, padded)
    expect = list(interior.shape)
    expect[axis] = package.shape[axis]
    if list(package.shape) != expect:
        raise ValueError(
            f"package shape {package.shape} incompatible with subdomain "
            f"{interior.shape} along axis {axis}"
        )
    parts = [package, interior] if side == "low" else [interior, package]
    return pad_with_ghosts(np.concatenate(parts, axis=axis), padded)


def _check_band_args(axis: int, side: str, padded: tuple[int, ...]) -> None:
    if axis not in padded:
        raise ValueError(
            f"axis {axis} is not decomposed here (padded axes: {padded})"
        )
    if side not in ("low", "high"):
        raise ValueError(f"side must be 'low' or 'high', got {side!r}")
