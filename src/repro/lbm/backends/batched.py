"""The ensemble's kernels: N independent channels in one array pass.

The CPU analogue of the paper's cluster-level amortisation: instead of
spreading one lattice over many nodes, this backend stacks **many
independent simulations** into one ``(B, C, Q, *S)`` population array
and sweeps every kernel across the whole ensemble at once, so the
Python/NumPy dispatch overhead of a step is paid once per *batch*
instead of once per *member*.  Per-member scalar parameters — the
Shan-Chen coupling matrix, the hydrophobic wall-force amplitude, the
driving body force — enter as per-member coefficient arrays
(``g_matrices``) and a stacked acceleration field, so a slip-length
sweep over wall-interaction strength runs as a single batched pass.

Bitwise contract: slicing member ``b`` out of a batched run reproduces
a standalone ``reference``-backend run of that member's configuration
**exactly** (pinned by exact-equality differential tests).  Three
ingredients make that possible:

- the batch axis leads, so every member slice is a contiguous array
  with the same layout the reference kernels see;
- elementwise arithmetic and slice-copy data movement are per-element
  identical no matter how many members share the pass;
- the two contractions (``c . u`` and the moment sums) go through the
  same BLAS GEMM per 2-D slice whether called via ``dot`` on one member
  or stacked ``matmul`` on the batch, and the per-member Shan-Chen
  coupling is one ``dot`` with ``out=`` per member — the very call
  ``np.tensordot`` makes internally.

Allocation discipline: every kernel is ``@hot_path`` and writes through
scratch preallocated in ``__init__`` (REP001 statically, tracemalloc at
runtime).  Broadcast (stride-0) operands are avoided by materialising
the per-component ``omega * mask`` and mask fields once and looping
rows, the same idiom as the ``fused`` backend.

Not a selectable backend: :class:`BatchedBackend` is constructed only
by :mod:`repro.lbm.ensemble`, always with a batch size, on state the
engine allocates contiguous, and without wall adhesion
(:class:`~repro.lbm.ensemble.EnsembleSpec` refuses it).  Because it is
the ``reference`` arithmetic, only ``reference`` specs may be stacked
onto it (:func:`repro.api.batch_exclusion_reason`).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.lbm.backends.registry import KernelBackend
from repro.lbm.shan_chen import psi_identity
from repro.util.hotpath import hot_path

_FULL = slice(None)
_LEAD = (_FULL, _FULL)  # the (batch, component) axes of a roll plan


def _axis_roll_segments(n, s):
    """(dst, src) slice pairs so that ``dst_block = src_block`` implements
    ``roll`` by *s* along one axis of extent *n*."""
    s %= n
    if s == 0:
        return [(_FULL, _FULL)]
    return [
        (slice(s, None), slice(0, n - s)),
        (slice(0, s), slice(n - s, None)),
    ]


def _roll_plan(shape, shift):
    """(dst, src) slice-pair plan implementing ``roll`` by *shift* over
    the spatial axes of a ``(B, C, *S)`` slab."""
    per_axis = [_axis_roll_segments(n, s) for n, s in zip(shape, shift)]
    return [
        (
            _LEAD + tuple(p[0] for p in combo),
            _LEAD + tuple(p[1] for p in combo),
        )
        for combo in product(*per_axis)
    ]


def _root_base(arr):
    """The ultimate memory owner of *arr* (itself if not a view)."""
    while arr.base is not None:
        arr = arr.base
    return arr


class BatchedBackend(KernelBackend):
    """The :class:`KernelBackend` kernels over a leading batch axis:
    every array carries one more leading dimension than the contract
    states (``f`` is ``(B, C, Q, *S)``, ``rho`` ``(B, C, *S)``, ...).

    Parameters beyond the :class:`KernelBackend` contract:

    batch:
        The ensemble size B >= 1.
    g_matrices:
        Optional per-member coupling matrices ``(B, C, C)``; defaults to
        ``config.g_matrix`` for every member.
    """

    name = "batched"

    def __init__(self, config, shape, solid_mask, *, batch, g_matrices=None):
        super().__init__(config, shape, solid_mask)
        lat = self.lattice
        if np.abs(lat.c).max() > 1:
            raise ValueError(
                f"batched backend requires single-link velocities, "
                f"lattice {lat.name} has |c| > 1"
            )
        B = int(batch)
        if B < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.batch = B
        C, Q, D, S = self.n_components, lat.Q, lat.D, self.shape
        N = self.n_points

        if g_matrices is None:
            g = np.empty((B, C, C), dtype=np.float64)
            g[...] = np.asarray(self.g_matrix, dtype=np.float64)
        else:
            g = np.asarray(g_matrices, dtype=np.float64)
            if g.shape != (B, C, C):
                raise ValueError(
                    f"g_matrices must have shape {(B, C, C)}, got {g.shape}"
                )
        self._g_rows = g

        # --- streaming ----------------------------------------------------
        self._rest = [int(k) for k in range(Q) if k not in set(lat.moving)]
        self._stream_plans = [
            (int(k), _roll_plan(S, lat.shifts[k])) for k in lat.moving
        ]
        self._fbuf = np.empty((B, C, Q) + S, dtype=np.float64)

        # --- bounce-back (flat gather/scatter, as in fused) ---------------
        solid_idx = np.flatnonzero(self.solid_mask.ravel())
        self._n_solid = int(solid_idx.size)
        rows = lat.moving[:, None] * N
        opp_rows = lat.opp[lat.moving][:, None] * N
        self._gather_idx = (rows + solid_idx).ravel()
        self._scatter_idx = (opp_rows + solid_idx).ravel()
        self._bounce_scratch = np.empty(
            len(lat.moving) * self._n_solid, dtype=np.float64
        )

        # --- equilibrium / collision --------------------------------------
        self._inv_cs2 = 1.0 / lat.cs2
        self._half_inv4 = 0.5 * self._inv_cs2 * self._inv_cs2
        self._half_inv2 = 0.5 * self._inv_cs2
        self._cf = np.asarray(lat.cf, dtype=np.float64)  # (Q, D)
        self._cfT = np.asarray(lat.cf.T, dtype=np.float64)  # (D, Q)
        self._w_list = [float(wk) for wk in lat.w]
        self._cu_mat = np.empty((B, Q, N), dtype=np.float64)
        self._feq = np.empty((B, Q) + S, dtype=np.float64)
        self._feq_mat = self._feq.reshape(B, Q, N)
        self._usq = np.empty((B,) + S, dtype=np.float64)
        self._sq = np.empty((B,) + S, dtype=np.float64)
        self._n = np.empty((B,) + S, dtype=np.float64)
        self._om = np.empty((C, B) + S, dtype=np.float64)
        self._omega_key = None

        # --- Shan-Chen ----------------------------------------------------
        # Per moving direction (lattice.moving order — the accumulation
        # order of the reference shifted_psi_sum): the roll plan reading
        # psi(x + c_k) and the (axis, w_k c_k[d]) terms it feeds.
        self._psi_terms = [
            (
                _roll_plan(S, lat.shifts[int(lat.opp[k])]),
                [
                    (d, float(lat.w[k]) * float(lat.c[k, d]))
                    for d in range(D)
                    if lat.c[k, d] != 0
                ],
            )
            for k in lat.moving
        ]
        self._psis = np.empty((B, C) + S, dtype=np.float64)
        self._npsis = np.empty((B, C) + S, dtype=np.float64)
        self._shifted = np.empty((B, C) + S, dtype=np.float64)
        self._term = np.empty((B, C) + S, dtype=np.float64)
        self._sums = np.empty((B, C, D) + S, dtype=np.float64)
        self._crow = np.empty((1, D * N), dtype=np.float64)

        # --- moments / forces / velocities --------------------------------
        self._tmp = np.empty((B,) + S, dtype=np.float64)
        self._denom = np.empty((B,) + S, dtype=np.float64)
        self._srho = np.empty((B,) + S, dtype=np.float64)
        self._ucom = np.empty((B, D) + S, dtype=np.float64)
        self._maskb_psi = np.empty((B,) + S, dtype=np.float64)
        self._maskb_vel = np.empty((B,) + S, dtype=np.float64)
        self._psi_mask_key = None
        self._vel_mask_key = None

    # ------------------------------------------------------------ streaming
    @hot_path
    def stream(self, f):
        buf = self._fbuf
        if buf.shape != f.shape or _root_base(buf) is _root_base(f):
            # repro: allow[REP001] -- cold fallback: the caller re-passed
            # our own buffer (or one of another width), so the double
            # buffer must be rebuilt
            buf = np.empty(f.shape, dtype=np.float64)
        for k in self._rest:
            buf[:, :, k] = f[:, :, k]
        for k, plan in self._stream_plans:
            fk = f[:, :, k]
            bk = buf[:, :, k]
            for dst, src in plan:
                bk[dst] = fk[src]
        self._fbuf = f  # the old populations become next step's target
        return buf

    @hot_path
    def bounce_back(self, f):
        if self._n_solid == 0:
            return
        B, C = f.shape[:2]
        fv = f.view()
        # Assigning the shape never copies: it raises for populations
        # that are not contiguous (the engine's always are).
        fv.shape = (B * C, self.lattice.Q * self.n_points)
        scratch = self._bounce_scratch
        for i in range(B * C):
            row = fv[i]
            np.take(row, self._gather_idx, out=scratch, mode="clip")
            # f_new[opp(k), s] = f_old[k, s] <=> f_k <- f_opp(k) at solids.
            row[self._scatter_idx] = scratch

    # ---------------------------------------------------------- equilibrium
    @hot_path
    def _equilibrium_into(self, n, u, feq):
        """Reference-ordered equilibrium of one component across the
        batch: *n* is number density ``(B, *S)``, *u* velocity
        ``(B, D, *S)``, *feq* the output ``(B, Q, *S)``; all per-element
        operations in the exact reference sequence."""
        B = self.batch
        D, Q, N = self.lattice.D, self.lattice.Q, self.n_points
        u_mat = u.reshape(B, D, N)
        cu_mat = self._cu_mat
        np.matmul(self._cf, u_mat, out=cu_mat)  # c . u, one stacked GEMM
        # usq in einsum index order: u0*u0 + u1*u1 (+ u2*u2)
        np.multiply(u[:, 0], u[:, 0], out=self._usq)
        for d in range(1, D):
            np.multiply(u[:, d], u[:, d], out=self._sq)
            self._usq += self._sq
        feq_mat = feq.reshape(B, Q, N)
        np.multiply(cu_mat, cu_mat, out=feq_mat)
        feq_mat *= self._half_inv4
        cu_mat *= self._inv_cs2  # out += cu * inv_cs2, scaled in place
        feq_mat += cu_mat
        feq_mat += 1.0
        self._usq *= self._half_inv2  # out -= (0.5/cs2) * usq
        usq, nbuf = self._usq, n
        for k, wk in enumerate(self._w_list):  # row-wise: no broadcasts
            row = feq[:, k]
            row -= usq
            row *= nbuf
            row *= wk

    @hot_path
    def equilibrium(self, rho_n, u, out=None):
        if rho_n.shape != (self.batch,) + self.shape:
            raise ValueError(
                f"rho shape {rho_n.shape} != batch {self.batch} of grid "
                f"{self.shape}"
            )
        if out is None:
            # repro: allow[REP001] -- out=None is the cold convenience form
            # (diagnostics, tests); the step loop always passes a buffer
            out = np.empty(
                (self.batch, self.lattice.Q) + self.shape, dtype=np.float64
            )
        self._n[...] = rho_n
        self._equilibrium_into(self._n, u, out)
        return out

    # ------------------------------------------------------------ collision
    @hot_path
    def collide_bgk(self, f, rho, u_eq, mask):
        if mask is not self._omega_key:
            # Masks are long-lived solver/ensemble arrays; rebuild the
            # materialised omega*mask fields only when identity changes.
            for c in range(self.n_components):
                self._om[c, ...] = (1.0 / self.taus[c]) * mask
            self._omega_key = mask
        feq = self._feq
        for c in range(self.n_components):
            np.divide(rho[:, c], self.masses[c], out=self._n)
            self._equilibrium_into(self._n, u_eq[:, c], feq)
            fc = f[:, c]
            np.subtract(feq, fc, out=feq)  # feq -= f
            om = self._om[c]
            for k in range(self.lattice.Q):  # feq *= omega * mask
                feq[:, k] *= om
            fc += feq  # f += omega * (feq - f) on masked nodes

    # ------------------------------------------------------------ Shan-Chen
    @hot_path
    def shan_chen_force(self, psis, out=None):
        if out is None:
            # repro: allow[REP001] -- out=None is the cold convenience form
            # (diagnostics, tests); the step loop always passes a buffer
            out = np.empty(
                (self.batch, self.n_components, self.lattice.D) + self.shape,
                dtype=np.float64,
            )
        B, C, D, N = (
            self.batch, self.n_components, self.lattice.D, self.n_points,
        )
        sums = self._sums
        sums.fill(0.0)
        shifted, term = self._shifted, self._term
        for plan, terms in self._psi_terms:  # lattice.moving order
            for dst, src in plan:
                shifted[dst] = psis[src]
            for d, coeff in terms:
                np.multiply(shifted, coeff, out=term)
                sums[:, :, d] += term
        np.negative(psis, out=self._npsis)
        crow = self._crow
        for b in range(B):  # per-member coupling: the exact tensordot GEMM
            smat = sums[b].reshape(C, D * N)
            for sigma in range(C):
                np.dot(self._g_rows[b, sigma:sigma + 1], smat, out=crow)
                coupled = crow.reshape((D,) + self.shape)
                npsi = self._npsis[b, sigma]
                for d in range(D):
                    np.multiply(npsi, coupled[d], out=out[b, sigma, d])
        return out

    # -------------------------------------------------------------- moments
    @hot_path
    def moments(self, f, rho_out, mom_out):
        B, C = f.shape[:2]
        Q, D, N = self.lattice.Q, self.lattice.D, self.n_points
        for c in range(C):
            fv = f[:, c].reshape(B, Q, N)
            rv = rho_out[:, c].reshape(B, N)
            mv = mom_out[:, c].reshape(B, D, N)
            np.sum(fv, axis=1, out=rv)
            np.matmul(self._cfT, fv, out=mv)
            rv *= self.masses[c]
            mv *= self.masses[c]

    # ----------------------------------------------- forces and velocities
    def _mask_field(self, mask, cache, key_attr):
        """Materialise a mask as a contiguous ``(B, *S)`` field, cached on
        the mask's identity (masks are long-lived arrays)."""
        if getattr(self, key_attr) is not mask:
            cache[...] = mask
            setattr(self, key_attr, mask)
        return cache

    @hot_path
    def forces_and_velocities(  # type: ignore[override]
        self, rho, mom, force, u_eq, *, accel, psi_mask, vel_mask
    ):
        """The ABC's kernel without its ``adhesion``/``wall_field``
        keywords: ensembles carry no wall adhesion."""
        C, D = self.n_components, self.lattice.D
        psi_m = self._mask_field(psi_mask, self._maskb_psi, "_psi_mask_key")
        vel_m = self._mask_field(vel_mask, self._maskb_vel, "_vel_mask_key")

        psis = self._psis
        if self.psi is psi_identity:
            for c in range(C):
                np.multiply(rho[:, c], psi_m, out=psis[:, c])
        else:
            for c in range(C):
                # Arbitrary psi callables allocate (invisible to REP001's
                # numpy sets); the identity fast path above is the hot loop.
                psis[:, c, ...] = self.psi(rho[:, c])
                psis[:, c] *= psi_m

        self.shan_chen_force(psis, out=force)
        tmp = self._tmp
        for c in range(C):  # force += accel * rho
            for d in range(D):
                np.multiply(accel[:, c, d], rho[:, c], out=tmp)
                force[:, c, d] += tmp

        # Common velocity: sequential component sums (= np.sum over C).
        denom, ucom = self._denom, self._ucom
        np.multiply(rho[:, 0], 1.0 / self.taus[0], out=denom)
        for c in range(1, C):
            np.multiply(rho[:, c], 1.0 / self.taus[c], out=tmp)
            denom += tmp
        for d in range(D):
            ud = ucom[:, d]
            np.multiply(mom[:, 0, d], 1.0 / self.taus[0], out=ud)
            for c in range(1, C):
                np.multiply(mom[:, c, d], 1.0 / self.taus[c], out=tmp)
                ud += tmp
        np.maximum(denom, 1e-300, out=denom)
        for d in range(D):
            ucom[:, d] /= denom

        srho = self._srho
        for c in range(C):
            np.maximum(rho[:, c], 1e-300, out=srho)
            for d in range(D):
                # u_eq = u_common + tau * F / safe_rho, then *= vel_mask
                np.multiply(force[:, c, d], self.taus[c], out=tmp)
                tmp /= srho
                np.add(ucom[:, d], tmp, out=u_eq[:, c, d])
                u_eq[:, c, d] *= vel_m
        return psis
