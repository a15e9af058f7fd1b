"""The ``fused`` backend: an allocation-free, BLAS-driven LBM hot path.

The step is memory-bound, so the kernels are organised around how many
times they sweep a ``(Q, N)`` population block (N = grid points).  An
elementwise ufunc pass moves about one element per nanosecond here; a
dgemm with a small constant matrix reads its operand once and is
several times cheaper per byte.  Per component and step:

=================  ==============================  =======================
kernel             polynomial form (before)        this module
=================  ==============================  =======================
collide            7 ufunc passes + 1 dgemm write  2 ufunc passes + 1 dgemm
                   (``c.u``, poly, base, n, w,     write (``f *= 1-omega``;
                   ``f *= 1-omega``, ``f += feq``)  ``f += omega feq``)
moments            2 reads of ``f`` (sum + dgemm)  1 read (one dgemm)
Shan-Chen          18 mostly diagonal rolls        12 unit-axis rolls
=================  ==============================  =======================

1. **Equilibrium as one dgemm.**  ``feq_k = w_k n (1 + c.u/cs2 +
   (c.u)^2/(2 cs4) - u^2/(2 cs2))`` is linear in the ``1 + D +
   D(D+1)/2`` monomial fields ``n, n u_i, n u_i u_j`` (10 for D3Q19, 6
   for D2Q9 — N-sized, not Q x N-sized), so ``feq = M @ basis`` with a
   constant ``(Q, nb)`` matrix built from ``lattice.w/cf/cs2``.  The
   collision folds ``omega`` into ``n`` and finishes with the relaxed
   BGK form ``f <- (1 - omega) f + omega feq``.
2. **Moments as one dgemm.**  ``[1; c^T] @ f`` yields density and
   momentum from a single read of ``f``; the mass scaling rides on the
   write-out into the caller's arrays.
3. **Separable Shan-Chen stencil.**  For single-speed lattices whose
   moving directions are the axis links (weight ``w_axis``) and the
   planar diagonals (``w_diag``) — D2Q9 and D3Q19 — the psi gradient
   factors as ``S_d = G_d(x + e_d) - G_d(x - e_d)`` with ``G_d = w_axis
   psi + w_diag sum_{e != d} (psi(x + e) + psi(x - e))``.
4. **Flat-offset rolls and in-place streaming.**  A periodic shift is
   one bulk copy of the flattened slab displaced by the shift's flat
   offset plus block copies that repair the wrapped faces.  Streaming
   shifts in place: one 1-D overlapping copy per component row (a
   memmove; a 2-D one allocates), the wrapped faces' sources saved to a
   small face scratch first.  The copies are views bound to the array
   on its first call (another array rebinds them), so a step slices
   nothing.  ``array_equal`` to ``np.roll``.
5. **Column blocks.**  Collision, equilibrium and moments walk the grid
   in blocks of ``min(16 384, N rounded up to 16)`` columns, so their
   basis, equilibrium and moment scratch is one block; block boundaries
   are multiples of 16, so the rule below keeps each column's bits.
   Narrower blocks cost calls: at 2 048 columns ``channel_nonded``'s four
   GIL-sharing thread ranks convoyed across the many short NumPy calls
   (0.67x MLUPS); at 16 384 it ties.  The per-mask ``omega`` fields stay
   grid-sized and cached (rebuilding them per block slowed small runs).
6. **A batch is a leading axis nothing streams along.**  Built with
   ``g_matrices`` of shape ``(B, C, C)``, the grid is ``(B, *S)`` — B
   independent members that share the solid mask — and every kernel
   above is unchanged: a zero shift on the batch axis costs the roll
   plans nothing, the two dgemms run over ``B N`` columns, bounce-back
   indexes the tiled mask, and only the Shan-Chen coupling, whose matrix
   may differ per member, is one product per run of members that share
   it.  This is how :mod:`repro.lbm.ensemble` stacks a sweep, and by
   the contract below member ``b`` of the stack has the bits of its
   stand-alone run.

**Contract.**  Results agree with ``reference`` to <= 1e-12 (in practice
a few ULP; the operation order differs) and every kernel is *piece
independent*: applied to a contiguous x-slab of the grid it returns
exactly the bits the full-grid call returns for those planes.  The
parallel driver's overlapped schedule relies on that to stay bitwise
equal to the sequential solver, and the ensemble to stay bitwise equal
to its members' own runs.

**The multiple-of-16 rule.**  OpenBLAS computes the last ``N mod 8``
columns of a product with a different micro-kernel whose rounding
differs, so a column's bits would depend on where its piece happens to
end.  Every product therefore goes through :meth:`FusedBackend._matmul`,
which hands BLAS a column count that is a multiple of 16 and routes the
remainder through a 16-wide scratch block.

Bounce-back gathers the ``(Q, n_solid)`` populations at the solid nodes
with one ``take``, permutes the rows by ``opp`` with a second and writes
them back: one ``n_solid``-long index for every direction.  So a
stepping solver's scratch is O(f / Q) plus one column block, and the
steady-state ``step()`` allocates nothing grid-sized (see the
tracemalloc regression tests).
For the same reason every in-place ufunc in this module runs over
same-shape contiguous operands (row-wise loops instead of stride-0
broadcasts): with NumPy >= 2 those broadcasts also buffer.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod

import numpy as np

from repro.lbm.backends.registry import KernelBackend
from repro.util.hotpath import hot_path

_FULL = slice(None)

#: Column granularity of every BLAS call (see the module docstring).
_BLOCK = 16

#: Widest column block of collision, equilibrium and moments scratch; a
#: multiple of ``_BLOCK`` (module docstring, item 5).
_MAX_COLUMNS = 16_384


_STEP_SEGMENTS = {  # per-axis (dst, src) pairs, the non-wrapping one first
    0: [(_FULL, _FULL)],
    1: [(slice(1, None), slice(0, -1)), (slice(0, 1), slice(-1, None))],
    -1: [(slice(0, -1), slice(1, None)), (slice(-1, None), slice(0, 1))],
}


@lru_cache(maxsize=512)  # pure; every backend build asks again
def _roll_plan(shape: tuple[int, ...], shift: tuple[int, ...]) -> tuple:
    """Flat-offset plan ``(dst_flat, src_flat, fixups)`` for
    ``buf = np.roll(f, shift)`` on the spatial axes of a ``(C, *S)`` slab
    with ``|shift| <= 1`` per axis.  On the row-major flattened grid the
    roll is a displacement by one flat offset wherever no axis wraps, so
    a single bulk copy ``buf[:, dst_flat] = f[:, src_flat]`` does the
    body (and scribbles on the wrapped faces); the *fixups* — block
    copies with a leading component slice — then overwrite every site
    where some axis did wrap."""
    n_pts = prod(shape)
    stride, off, per_axis = n_pts, 0, []
    for n, s in zip(shape, shift):
        stride //= n
        s = 0 if n == 1 else int(s)
        off += s * stride
        per_axis.append(_STEP_SEGMENTS[s])
    fixups = tuple(
        (
            (_FULL,) + tuple(p[0] for p in combo),
            (_FULL,) + tuple(p[1] for p in combo),
        )
        for combo in list(product(*per_axis))[1:]  # [0] wraps nowhere
    )
    if off >= 0:
        return slice(off, None), slice(0, n_pts - off), fixups
    return slice(0, n_pts + off), slice(-off, None), fixups


def _rows(a: np.ndarray, lead: int) -> np.ndarray:
    """View of *a* with every axis after the first *lead* merged into
    one; raises rather than copy, so writes through it land in *a*
    (reads take the cheaper ``reshape``)."""
    v = a.view()
    v.shape = a.shape[:lead] + (-1,)
    return v


@hot_path
def _roll_into(dst: np.ndarray, src: np.ndarray, plan: tuple) -> None:
    """``dst = np.roll(src, shift)`` on ``(C, *S)`` slabs via *plan*."""
    dst_flat, src_flat, fixups = plan
    c = dst.shape[0]
    dst.reshape(c, -1)[:, dst_flat] = src.reshape(c, -1)[:, src_flat]
    for d, s in fixups:
        dst[d] = src[s]


def _stencil_weights(lat) -> tuple[float, float]:
    """``(w_axis, w_diag)`` of a lattice whose moving directions are
    exactly the 2D axis links and the 2D(D-1) planar diagonals, each
    class with one weight — the precondition of the separable S-C form."""
    D = lat.D
    links = np.abs(lat.c[lat.moving]).sum(axis=1)
    w = lat.w[lat.moving]
    if (
        np.abs(lat.c).max() > 1
        or links.max() > 2
        or (links == 1).sum() != 2 * D
        or (links == 2).sum() != 2 * D * (D - 1)
        or np.ptp(w[links == 1]) != 0.0
        or np.ptp(w[links == 2]) != 0.0
    ):
        raise ValueError(
            f"fused backend requires axis + planar-diagonal single-link "
            f"velocities (D2Q9, D3Q19); lattice {lat.name} is not"
        )
    return float(w[links == 1][0]), float(w[links == 2][0])


class FusedBackend(KernelBackend):
    """Preallocated-scratch, BLAS-driven implementation."""

    name = "fused"

    def __init__(self, config, shape, solid_mask, *, g_matrices=None):
        """*g_matrices* ``(B, C, C)``: *shape* is ``(B, *S)``, a stack of
        B members with their own coupling matrices (module docstring)."""
        # What the batch axis adds in front of a lattice shift: nothing.
        batch = () if g_matrices is None else (0,)
        super().__init__(config, shape, solid_mask, batch_axes=len(batch))
        lat = self.lattice
        C, Q, D, S = self.n_components, lat.Q, lat.D, self.shape
        N = self.n_points
        w_axis, w_diag = _stencil_weights(lat)
        g = self.g_matrix[None]
        if g_matrices is not None:
            g = np.asarray(g_matrices, dtype=np.float64)
            if not len(g) or g.shape != (S[0], C, C):
                raise ValueError(
                    f"g_matrices must hold one (C, C) matrix per member of "
                    f"a non-empty batch axis, {(S[0], C, C)}; got {g.shape}"
                )

        # --- streaming ----------------------------------------------------
        # In place (module docstring, item 4).
        self._stream_plans = [
            (int(k), _roll_plan(S, batch + lat.shifts[k])) for k in lat.moving
        ]
        grid = np.broadcast_to(0.0, (C,) + S)  # region shapes, no memory
        self._faces = np.empty(
            max(sum(grid[s].size for _, s in p[2]) for _, p in self._stream_plans),
            dtype=np.float64,
        )
        self._streamed: object = None
        self._stream_copies: list = []

        # --- bounce-back --------------------------------------------------
        # One flat solid index serves every direction: gather the (Q,
        # n_solid) block, permute its rows by opp, scatter it back.
        # ``mode="clip"`` keeps take from buffering its output.
        self._solid = np.flatnonzero(self.solid_mask.ravel())
        self._opp = lat.opp.astype(np.intp)
        self._bounce_at = np.empty((Q, self._solid.size), dtype=np.float64)
        self._bounce_swapped = np.empty_like(self._bounce_at)

        # --- BLAS tail scratch (see _matmul) ------------------------------
        # Rows for the largest operand and result: (Q, n) populations or
        # (C, n) component stacks.
        self._tail_in = np.zeros((max(Q, C), _BLOCK), dtype=np.float64)
        self._tail_out = np.zeros_like(self._tail_in)

        # --- equilibrium / collision (one column block of scratch) --------
        # feq = _feq_mat @ [n, n u_i, n u_i u_j (i <= j)]; nb <= Q rows.
        self._width = min(_MAX_COLUMNS, -(-N // _BLOCK) * _BLOCK)
        self._pairs = [(i, j) for i in range(D) for j in range(i, D)]
        nb = 1 + D + len(self._pairs)
        inv_cs2 = 1.0 / lat.cs2
        mat = np.empty((Q, nb), dtype=np.float64)
        mat[:, 0] = 1.0
        mat[:, 1 : 1 + D] = lat.cf * inv_cs2
        for col, (i, j) in enumerate(self._pairs, 1 + D):
            mat[:, col] = lat.cf[:, i] * lat.cf[:, j] * inv_cs2 * inv_cs2
            if i == j:
                mat[:, col] = 0.5 * mat[:, col] - 0.5 * inv_cs2
        self._feq_mat = mat * lat.w[:, None]
        self._basis = np.empty((nb, self._width), dtype=np.float64)
        self._feq = np.empty((Q, self._width), dtype=np.float64)
        self._omega = np.empty((C, N), dtype=np.float64)
        self._one_minus_omega = np.empty((C, N), dtype=np.float64)
        self._omega_key: object = None

        # --- Shan-Chen ----------------------------------------------------
        # Plans reading a field at x + e_d and x - e_d (buf = roll(psi, s)
        # reads psi(x - s)).  Shifted fields are materialised by slice
        # assignment (into scratch, or into the force rows S_d is built
        # in), so every ufunc runs same-shape and allocation-free.  S is
        # kept in units of w_diag: the common factor is folded, with the
        # sign of F = -psi (g . S), into the coupling matrix.
        unit = np.eye(len(S), dtype=int)[len(batch) :]
        self._axis_plans = [
            (_roll_plan(S, tuple(-u)), _roll_plan(S, tuple(u))) for u in unit
        ]
        self._axis_ratio = w_axis / w_diag
        # (columns, -g w_diag) per run of members sharing a coupling
        # matrix: one entry for a single solver or a shared-g stack.
        per_member, start = N // len(g), 0
        self._neg_gw = []
        for b in range(1, len(g) + 1):
            if b == len(g) or not np.array_equal(g[b], g[start]):
                cols = slice(start * per_member, b * per_member)
                self._neg_gw.append((cols, -g[start] * w_diag))
                start = b
        self._psis = np.empty((C,) + S, dtype=np.float64)
        self._roll_m = np.empty((C,) + S, dtype=np.float64)
        self._gsum = np.empty((C,) + S, dtype=np.float64)
        # nbr[e] = psi(x + e) + psi(x - e), each a contiguous (C, *S) slab.
        self._nbr = np.empty((D, C) + S, dtype=np.float64)

        # --- moments / forces / velocities --------------------------------
        # (1 + D, Q): the density row, then the momentum rows.
        self._mom_mat = np.vstack([np.ones((1, Q), dtype=np.float64), lat.cf.T])
        self._mbuf = np.empty((1 + D, self._width), dtype=np.float64)
        self._inv_tau_row = (1.0 / self.taus).reshape(1, C)
        self._denom = np.empty(S, dtype=np.float64)
        self._denom_flat = self._denom.reshape(1, N)
        self._ucommon = np.empty((D,) + S, dtype=np.float64)
        self._ucommon_flat = self._ucommon.reshape(1, D * N)
        self._srho = np.empty(S, dtype=np.float64)

    # ----------------------------------------------------------------- BLAS
    @hot_path
    def _matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """``out = a @ b`` for a small constant ``a`` and 2-D ``(K, n)`` /
        ``(M, n)`` views, with bits that do not depend on ``n``: BLAS only
        ever sees column counts that are multiples of ``_BLOCK``.  Columns
        are independent, so whatever the tail scratch holds beyond the
        remainder is harmless."""
        n = b.shape[1]
        body = n - n % _BLOCK
        if body:
            np.matmul(a, b[:, :body], out=out[:, :body])
        if body < n:
            m, k = a.shape
            tail_in, tail_out = self._tail_in[:k], self._tail_out[:m]
            tail_in[:, : n - body] = b[:, body:]
            np.matmul(a, tail_in, out=tail_out)
            out[:, body:] = tail_out[:, : n - body]

    def _blocks(self, n: int):
        """``(cols, width)`` of each column block of an *n*-column call."""
        w = self._width
        for start in range(0, n, w):
            yield slice(start, start + w), min(w, n - start)

    # ------------------------------------------------------------ streaming
    @hot_path
    def stream(self, f: np.ndarray) -> np.ndarray:
        if f is not self._streamed:
            self._stream_copies = self._bind_stream(f)
            self._streamed = f
        for dst, src in self._stream_copies:
            dst[:] = src
        return f

    def _bind_stream(self, f: np.ndarray) -> list:
        """The ``(dst, src)`` copies that stream *f* in place.  Per moving
        direction: save the wrapped faces' sources, shift each component
        row by one overlapping 1-D copy, write the faces back.  The row
        shifts are memoryview assignments, which are one ``memmove``:
        NumPy copies an overlapping shift towards higher addresses
        element by element in reverse, 2-4x slower."""
        copies, rows = [], _rows(f, 2)
        for k, (dst_flat, src_flat, fixups) in self._stream_plans:
            fk, at, restores = f[:, k], 0, []
            for d, s in fixups:
                face = self._faces[at : at + fk[s].size].reshape(fk[s].shape)
                at += face.size
                copies.append((face, fk[s]))
                restores.append((fk[d], face))
            for row in map(memoryview, rows[:, k]):
                copies.append((row[dst_flat], row[src_flat]))
            copies += restores
        return copies

    @hot_path
    def bounce_back(self, f: np.ndarray) -> None:
        if not self._solid.size:
            return
        at, swapped, solid = self._bounce_at, self._bounce_swapped, self._solid
        for fc in _rows(f, 2):
            fc.take(solid, axis=1, out=at, mode="clip")
            # f_new[k, s] = f_old[opp(k), s] at every solid node s.
            at.take(self._opp, axis=0, out=swapped, mode="clip")
            fc[:, solid] = swapped

    # ---------------------------------------------------------- equilibrium
    @hot_path
    def _feq_into(self, u: np.ndarray, basis: np.ndarray, out: np.ndarray) -> None:
        """``out`` ``(Q, w)`` ``<- feq(basis[0], u)`` for one column block."""
        D = self.lattice.D
        for i in range(D):
            np.multiply(basis[0], u[i], out=basis[1 + i])
        for col, (i, j) in enumerate(self._pairs, 1 + D):
            np.multiply(basis[1 + i], u[j], out=basis[col])
        self._matmul(self._feq_mat, basis, out)

    @hot_path
    def equilibrium(
        self, rho_n: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        Q = self.lattice.Q
        if rho_n.shape != self.shape:
            raise ValueError(
                f"rho shape {rho_n.shape} != backend grid {self.shape}"
            )
        if u.shape != (self.lattice.D,) + self.shape:
            raise ValueError(
                f"u shape {u.shape} != {(self.lattice.D,) + self.shape}"
            )
        if out is None:
            # repro: allow[REP001] -- out=None is the cold convenience form
            # (diagnostics, tests); the step loop always passes a buffer
            out = np.empty((Q,) + self.shape, dtype=np.float64)
        rows, n, u_rows = _rows(out, 1), rho_n.reshape(-1), u.reshape(len(u), -1)
        for cols, w in self._blocks(self.n_points):
            basis = self._basis[:, :w]
            basis[0] = n[cols]
            self._feq_into(u_rows[:, cols], basis, rows[:, cols])
        return out

    # ------------------------------------------------------------ collision
    @hot_path
    def collide_bgk(
        self,
        f: np.ndarray,
        rho: np.ndarray,
        u_eq: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        if mask is not self._omega_key:
            # Masks are long-lived solver arrays; rebuild the cached
            # omega*mask products only when the identity changes.
            for ci in range(self.n_components):
                omega = self._omega[ci]
                np.multiply(mask, 1.0 / self.taus[ci], out=omega.reshape(self.shape))
                np.subtract(1.0, omega, out=self._one_minus_omega[ci])
            self._omega_key = mask
        # BGK in the relaxed form f <- (1 - omega) f + omega feq, with
        # omega folded into the number density the dgemm sees.  Masked
        # (solid) nodes have omega = 0, so f passes through unchanged.
        for ci in range(self.n_components):
            fc, rho_c = _rows(f[ci], 1), rho[ci].reshape(-1)
            u_c = u_eq[ci].reshape(self.lattice.D, -1)
            for cols, w in self._blocks(fc.shape[1]):
                basis, feq = self._basis[:, :w], self._feq[:, :w]
                n_omega = basis[0]
                np.divide(rho_c[cols], self.masses[ci], out=n_omega)
                n_omega *= self._omega[ci, cols]
                self._feq_into(u_c[:, cols], basis, feq)
                om1 = self._one_minus_omega[ci, cols]
                for frow, feq_k in zip(fc[:, cols], feq):
                    frow *= om1
                    frow += feq_k

    # ------------------------------------------------------------ Shan-Chen
    @hot_path
    def shan_chen_force(
        self, psis: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        C, D = self.n_components, self.lattice.D
        if out is None:
            # repro: allow[REP001] -- out=None is the cold convenience form
            # (diagnostics, tests); the step loop always passes a buffer
            out = np.empty((C, D) + self.shape, dtype=np.float64)
        rm, gsum, nbr = self._roll_m, self._gsum, self._nbr
        for e, (plan_p, plan_m) in enumerate(self._axis_plans):
            _roll_into(nbr[e], psis, plan_p)
            _roll_into(rm, psis, plan_m)
            nbr[e] += rm
        gsum_rows = gsum.reshape(C, -1)
        for d, (plan_p, plan_m) in enumerate(self._axis_plans):
            np.multiply(psis, self._axis_ratio, out=gsum)
            for e in range(D):
                if e != d:
                    gsum += nbr[e]
            # S_d = G_d(x + e_d) - G_d(x - e_d), built in out[:, d].
            sd = out[:, d]
            _roll_into(sd, gsum, plan_p)
            _roll_into(rm, gsum, plan_m)
            sd -= rm
            # gsum is free again: it takes -(g w_diag) . S_d, then psi.
            for cols, neg_gw in self._neg_gw:
                self._matmul(neg_gw, sd.reshape(C, -1)[:, cols], gsum_rows[:, cols])
            np.multiply(gsum, psis, out=sd)
        return out

    # -------------------------------------------------------------- moments
    @hot_path
    def moments(
        self, f: np.ndarray, rho_out: np.ndarray, mom_out: np.ndarray
    ) -> None:
        D = self.lattice.D
        for ci, mass in enumerate(self.masses):
            fc = f[ci].reshape(self.lattice.Q, -1)
            rho_c, mom_c = _rows(rho_out[ci], 0), _rows(mom_out[ci], 1)
            for cols, w in self._blocks(fc.shape[1]):
                mbuf = self._mbuf[:, :w]
                self._matmul(self._mom_mat, fc[:, cols], mbuf)
                # Mass scaling on the write-out, row by row: contiguous
                # and buffer-free for x-slab pieces too.
                np.multiply(mbuf[0], mass, out=rho_c[cols])
                for d in range(D):
                    np.multiply(mbuf[1 + d], mass, out=mom_c[d, cols])

    @hot_path
    def forces_and_velocities(
        self,
        rho: np.ndarray,
        mom: np.ndarray,
        force: np.ndarray,
        u_eq: np.ndarray,
        *,
        accel: np.ndarray,
        psi_mask: np.ndarray,
        vel_mask: np.ndarray,
        adhesion: tuple[float, ...] | None = None,
        wall_field: np.ndarray | None = None,
    ) -> np.ndarray:
        C, D = self.n_components, self.lattice.D
        psis = self._psis  # psi(rho) = rho
        for ci in range(C):  # row-wise: see the module docstring
            np.multiply(rho[ci], psi_mask, out=psis[ci])

        self.shan_chen_force(psis, out=force)
        # u_eq is scratch until the velocity loop below fills it.
        for ci, d in product(range(C), range(D)):
            np.multiply(accel[ci, d], rho[ci], out=u_eq[ci, d])
        force += u_eq
        if adhesion is not None and wall_field is not None:
            for ci, g_ads in enumerate(adhesion):
                if g_ads != 0.0:
                    for d in range(D):
                        np.multiply(psis[ci], wall_field[d], out=u_eq[ci, d])
                        u_eq[ci, d] *= g_ads
                        force[ci, d] -= u_eq[ci, d]

        self._matmul(self._inv_tau_row, rho.reshape(C, -1), self._denom_flat)
        self._matmul(self._inv_tau_row, mom.reshape(C, -1), self._ucommon_flat)
        np.maximum(self._denom, 1e-300, out=self._denom)
        ucommon = self._ucommon
        for d in range(D):
            ucommon[d] /= self._denom
        for ci in range(C):
            np.maximum(rho[ci], 1e-300, out=self._srho)
            np.multiply(force[ci], self.taus[ci], out=u_eq[ci])
            ue = u_eq[ci]
            for d in range(D):
                ued = ue[d]
                ued /= self._srho
                ued += ucommon[d]
                ued *= vel_mask
            # (row-wise to stay buffer-free; ucommon add is same-shape)
        return psis
