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
4. **Flat-offset rolls and double-buffered streaming.**  A periodic
   shift is one bulk copy of the flattened slab displaced by the shift's
   flat offset plus block copies that repair the wrapped faces, written
   straight into a second population buffer (callers rebind:
   ``f = backend.stream(f)``).  Pure data movement: ``array_equal`` to
   ``np.roll``.
5. **A batch is a leading axis nothing streams along.**  Built with
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

Bounce-back gathers/scatters precomputed flat solid indices through a
fixed scratch block, so the steady-state ``step()`` performs no
full-grid allocation at all (see the tracemalloc regression test).
For the same reason every in-place ufunc in this module runs over
same-shape contiguous operands (row-wise loops instead of stride-0
broadcasts): with NumPy >= 2 those broadcasts also buffer.
"""

from __future__ import annotations

from itertools import product
from math import prod

import numpy as np

from repro.lbm.backends.registry import KernelBackend
from repro.lbm.boundary import bounce_back as _masked_bounce_back
from repro.util.hotpath import hot_path

_FULL = slice(None)

#: Column granularity of every BLAS call (see the module docstring).
_BLOCK = 16


_STEP_SEGMENTS = {  # per-axis (dst, src) pairs, the non-wrapping one first
    0: [(_FULL, _FULL)],
    1: [(slice(1, None), slice(0, -1)), (slice(0, 1), slice(-1, None))],
    -1: [(slice(0, -1), slice(1, None)), (slice(-1, None), slice(0, 1))],
}


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
    fixups = [
        (
            (_FULL,) + tuple(p[0] for p in combo),
            (_FULL,) + tuple(p[1] for p in combo),
        )
        for combo in list(product(*per_axis))[1:]  # [0] wraps nowhere
    ]
    if off >= 0:
        return slice(off, None), slice(0, n_pts - off), fixups
    return slice(0, n_pts + off), slice(-off, None), fixups


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
        self._rest = [int(k) for k in range(Q) if k not in set(lat.moving)]
        self._stream_plans = [
            (int(k), _roll_plan(S, batch + lat.shifts[k])) for k in lat.moving
        ]
        self._fbuf = np.empty((C, Q) + S, dtype=np.float64)

        # --- bounce-back --------------------------------------------------
        # Flat gather/scatter indices into one component's (Q*N,) raveled
        # populations, restricted to the moving directions (the rest
        # population is its own mirror): scratch[k, i] = f[k, s_i], then
        # f[opp(k), s_i] = scratch[k, i].  Precomputed intp indices with
        # ``mode="clip"`` on the gather keep NumPy from allocating its
        # bounds-checking buffer.
        self._solid_flat = np.flatnonzero(self.solid_mask.ravel())
        self._n_solid = int(self._solid_flat.size)
        moving = lat.moving.astype(np.intp)
        rows = moving[:, None] * N
        opp_rows = lat.opp[moving].astype(np.intp)[:, None] * N
        self._gather_idx = np.ascontiguousarray(
            (rows + self._solid_flat).ravel(), dtype=np.intp
        )
        self._scatter_idx = np.ascontiguousarray(
            (opp_rows + self._solid_flat).ravel(), dtype=np.intp
        )
        self._bounce_scratch = np.empty(
            moving.size * self._n_solid, dtype=np.float64
        )

        # --- BLAS tail scratch (see _matmul) ------------------------------
        # Rows for the largest operand and result: (Q, n) populations or
        # (C, n) component stacks.
        self._tail_in = np.zeros((max(Q, C), _BLOCK), dtype=np.float64)
        self._tail_out = np.zeros_like(self._tail_in)

        # --- equilibrium / collision --------------------------------------
        # feq = _feq_mat @ [n, n u_i, n u_i u_j (i <= j)]; nb <= Q rows.
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
        self._basis = np.empty((nb,) + S, dtype=np.float64)
        self._basis_flat = self._basis.reshape(nb, N)
        self._feq = np.empty((Q,) + S, dtype=np.float64)
        self._feq_flat = self._feq.reshape(Q, N)
        self._omega = np.empty((C,) + S, dtype=np.float64)
        self._one_minus_omega = np.empty((C,) + S, dtype=np.float64)
        self._omega_key: object = None

        # --- Shan-Chen ----------------------------------------------------
        # Plans reading a field at x + e_d and x - e_d (buf = roll(psi, s)
        # reads psi(x - s)).  Shifted fields are materialised into
        # contiguous scratch by slice assignment, so every ufunc runs
        # contiguous and allocation-free.  S is kept in units of w_diag:
        # the common factor is folded, with the sign of F = -psi (g . S),
        # into the coupling matrix.
        unit = np.eye(len(S), dtype=int)[len(batch) :]
        self._axis_plans = [
            (_roll_plan(S, tuple(-unit[d])), _roll_plan(S, tuple(unit[d])))
            for d in range(D)
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
        self._roll_p = np.empty((C,) + S, dtype=np.float64)
        self._roll_m = np.empty((C,) + S, dtype=np.float64)
        self._gsum = np.empty((C,) + S, dtype=np.float64)
        # Direction-major layout: svec[d] / coupled[d] are contiguous
        # (C, *S) slabs, so every in-place op on them stays buffer-free.
        self._svec = np.empty((D, C) + S, dtype=np.float64)
        self._svec_mat = self._svec.reshape(D, C, N)
        self._coupled = np.empty((D, C) + S, dtype=np.float64)
        self._coupled_mat = self._coupled.reshape(D, C, N)

        # --- moments / forces / velocities --------------------------------
        # (1 + D, Q): the density row, then the momentum rows.
        self._mom_mat = np.vstack([np.ones((1, Q), dtype=np.float64), lat.cf.T])
        self._mbuf = np.empty((1 + D, N), dtype=np.float64)
        self._inv_tau_row = (1.0 / self.taus).reshape(1, C)
        self._tmp_cd = np.empty((C, D) + S, dtype=np.float64)
        self._tmp_d = np.empty((D,) + S, dtype=np.float64)
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

    # ------------------------------------------------------------ streaming
    @hot_path
    def stream(self, f: np.ndarray) -> np.ndarray:
        buf = self._fbuf
        if buf.shape != f.shape or buf is f:
            # repro: allow[REP001] -- cold fallback: the slab was resized by
            # plane migration, so next step's double buffer must be rebuilt
            buf = np.empty(f.shape, dtype=np.float64)
        for k in self._rest:
            buf[:, k] = f[:, k]
        for k, plan in self._stream_plans:
            _roll_into(buf[:, k], f[:, k], plan)
        self._fbuf = f  # the old buffer becomes next step's target
        return buf

    @hot_path
    def bounce_back(self, f: np.ndarray) -> None:
        if self._n_solid == 0:
            return
        lat = self.lattice
        try:
            fv = f.view()
            fv.shape = (f.shape[0], lat.Q, self.n_points)
        except AttributeError:
            # Non-contiguous populations: generic masked fallback.
            for ci in range(f.shape[0]):
                _masked_bounce_back(f[ci], self.solid_mask, lat)
            return
        scratch = self._bounce_scratch
        for ci in range(f.shape[0]):
            f1 = fv[ci].reshape(-1)
            np.take(f1, self._gather_idx, out=scratch, mode="clip")
            # f_new[opp(k), s] = f_old[k, s]  <=>  f_k <- f_opp(k) at solids.
            f1[self._scatter_idx] = scratch

    # ---------------------------------------------------------- equilibrium
    @hot_path
    def _feq_into(self, u: np.ndarray, out: np.ndarray) -> None:
        """``out`` (a ``(Q, n_points)`` view) ``<- feq(n, u)`` where the
        caller has already put the (possibly omega-scaled) number density
        ``n`` into ``self._basis[0]``."""
        basis = self._basis
        D = self.lattice.D
        for i in range(D):
            np.multiply(basis[0], u[i], out=basis[1 + i])
        for col, (i, j) in enumerate(self._pairs, 1 + D):
            np.multiply(basis[1 + i], u[j], out=basis[col])
        self._matmul(self._feq_mat, self._basis_flat, out)

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
        rows = out.view()
        rows.shape = (Q, self.n_points)  # raises rather than copy
        self._basis[0][...] = rho_n
        self._feq_into(u, rows)
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
                np.multiply(mask, 1.0 / self.taus[ci], out=self._omega[ci])
                np.subtract(
                    1.0, self._omega[ci], out=self._one_minus_omega[ci]
                )
            self._omega_key = mask
        # BGK in the relaxed form f <- (1 - omega) f + omega feq, with
        # omega folded into the number density the dgemm sees.  Masked
        # (solid) nodes have omega = 0, so f passes through unchanged.
        feq = self._feq
        n_omega = self._basis[0]
        for ci in range(self.n_components):
            np.divide(rho[ci], self.masses[ci], out=n_omega)
            n_omega *= self._omega[ci]
            self._feq_into(u_eq[ci], self._feq_flat)
            om1 = self._one_minus_omega[ci]
            fci = f[ci]
            for k in range(self.lattice.Q):
                frow = fci[k]
                frow *= om1
                frow += feq[k]

    # ------------------------------------------------------------ Shan-Chen
    @hot_path
    def shan_chen_force(
        self, psis: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        D = self.lattice.D
        if out is None:
            # repro: allow[REP001] -- out=None is the cold convenience form
            # (diagnostics, tests); the step loop always passes a buffer
            out = np.empty(
                (self.n_components, D) + self.shape, dtype=np.float64
            )
        rp, rm, gsum = self._roll_p, self._roll_m, self._gsum
        nbr = self._coupled  # psi(x+e) + psi(x-e); free until the product below
        for e, (plan_p, plan_m) in enumerate(self._axis_plans):
            _roll_into(rp, psis, plan_p)
            _roll_into(rm, psis, plan_m)
            np.add(rp, rm, out=nbr[e])
        for d, (plan_p, plan_m) in enumerate(self._axis_plans):
            np.multiply(psis, self._axis_ratio, out=gsum)
            for e in range(D):
                if e != d:
                    gsum += nbr[e]
            _roll_into(rp, gsum, plan_p)
            _roll_into(rm, gsum, plan_m)
            np.subtract(rp, rm, out=self._svec[d])
        for d in range(D):
            # coupled[d] = -(g w_diag) . S[d]
            sd, cdm = self._svec_mat[d], self._coupled_mat[d]
            for cols, neg_gw in self._neg_gw:
                self._matmul(neg_gw, sd[:, cols], cdm[:, cols])
            cd = self._coupled[d]
            cd *= psis
            out[:, d] = cd
        return out

    # -------------------------------------------------------------- moments
    @hot_path
    def moments(
        self, f: np.ndarray, rho_out: np.ndarray, mom_out: np.ndarray
    ) -> None:
        C, Q = f.shape[:2]
        piece = rho_out.shape[1:]
        for ci in range(C):
            fv = f[ci].reshape(Q, -1)
            mbuf = self._mbuf[:, : fv.shape[1]]
            self._matmul(self._mom_mat, fv, mbuf)
            # Mass scaling on the write-out, row by row: contiguous and
            # buffer-free for x-slab pieces too.
            mass = self.masses[ci]
            np.multiply(mbuf[0].reshape(piece), mass, out=rho_out[ci])
            for d in range(self.lattice.D):
                np.multiply(
                    mbuf[1 + d].reshape(piece), mass, out=mom_out[ci, d]
                )

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
        tmp = self._tmp_cd
        for ci in range(C):
            for d in range(D):
                np.multiply(accel[ci, d], rho[ci], out=tmp[ci, d])
        force += tmp
        if adhesion is not None and wall_field is not None:
            for ci, g_ads in enumerate(adhesion):
                if g_ads != 0.0:
                    for d in range(D):
                        np.multiply(psis[ci], wall_field[d], out=self._tmp_d[d])
                    self._tmp_d *= g_ads
                    force[ci] -= self._tmp_d

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
