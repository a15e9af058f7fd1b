"""The ``batched`` backend: N independent channels in one array pass.

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
  coupling is an explicit per-member ``dot`` with ``out=`` — the exact
  call ``np.tensordot`` makes internally.

Allocation discipline: every kernel is ``@hot_path`` and writes through
scratch preallocated in ``__init__`` (REP001 statically, tracemalloc at
runtime).  Broadcast (stride-0) operands are avoided by materialising
the per-component ``omega * mask`` and mask fields once and looping
rows, the same idiom as the ``fused`` backend.

Array access goes through the :mod:`repro.lbm.backends.xp` namespace
handle (REP007); note this backend additionally relies on ``out=``
semantics and ``dot``, which the NumPy binding provides — it is the
ensemble fast path, not the portability layer (that is ``arrayapi``).
"""

from __future__ import annotations

from itertools import product

from repro.lbm.backends.registry import KernelBackend, register_backend
from repro.lbm.backends.xp import get_namespace
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


@register_backend
class BatchedBackend(KernelBackend):
    """Stacked-ensemble kernels; also a registry backend at batch = 1.

    Parameters beyond the :class:`KernelBackend` contract:

    batch:
        ``None`` (registry/single mode — the solver's ``(C, Q, *S)``
        arrays are viewed as a one-member batch) or the ensemble size B
        (arrays are expected pre-stacked as ``(B, C, Q, *S)`` etc.).
    g_matrices:
        Optional per-member coupling matrices ``(B, C, C)``; defaults to
        ``config.g_matrix`` for every member.
    """

    name = "batched"

    def __init__(
        self, config, shape, solid_mask, *, batch=None,
        g_matrices=None, namespace=None,
    ):
        super().__init__(config, shape, solid_mask)
        xp = get_namespace(namespace)
        self.xp = xp
        lat = self.lattice
        if xp.max(xp.abs(xp.asarray(lat.c))) > 1:
            raise ValueError(
                f"batched backend requires single-link velocities, "
                f"lattice {lat.name} has |c| > 1"
            )
        self._single = batch is None
        B = 1 if batch is None else int(batch)
        if B < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.batch = B
        C, Q, D, S = self.n_components, lat.Q, lat.D, self.shape
        N = self.n_points

        if g_matrices is None:
            g = xp.empty((B, C, C), dtype=xp.float64)
            g[...] = xp.asarray(self.g_matrix, dtype=xp.float64)
        else:
            g = xp.asarray(g_matrices, dtype=xp.float64)
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
        self._fbuf = xp.empty((B, C, Q) + S, dtype=xp.float64)

        # --- bounce-back (flat gather/scatter, as in fused) ---------------
        solid_flat = xp.reshape(xp.asarray(self.solid_mask), (-1,))
        self._solid_idx = xp.nonzero(solid_flat)[0]
        self._n_solid = int(self._solid_idx.shape[0])
        moving = xp.asarray(lat.moving)
        rows = xp.reshape(moving * N, (-1, 1))
        opp_rows = xp.reshape(xp.asarray(lat.opp)[moving] * N, (-1, 1))
        self._gather_idx = xp.reshape(rows + self._solid_idx, (-1,))
        self._scatter_idx = xp.reshape(opp_rows + self._solid_idx, (-1,))
        self._bounce_scratch = xp.empty(
            int(moving.shape[0]) * self._n_solid, dtype=xp.float64
        )
        self._opp = xp.asarray(lat.opp)
        self._solid = xp.asarray(self.solid_mask)

        # --- equilibrium / collision --------------------------------------
        self._inv_cs2 = 1.0 / lat.cs2
        self._half_inv4 = 0.5 * self._inv_cs2 * self._inv_cs2
        self._half_inv2 = 0.5 * self._inv_cs2
        self._cf = xp.asarray(lat.cf, dtype=xp.float64)  # (Q, D)
        self._cfT = xp.asarray(lat.cf.T, dtype=xp.float64)  # (D, Q)
        self._w_list = [float(wk) for wk in lat.w]
        self._cu_mat = xp.empty((B, Q, N), dtype=xp.float64)
        self._feq = xp.empty((B, Q) + S, dtype=xp.float64)
        self._feq_mat = self._feq.reshape(B, Q, N)
        self._usq = xp.empty((B,) + S, dtype=xp.float64)
        self._sq = xp.empty((B,) + S, dtype=xp.float64)
        self._n = xp.empty((B,) + S, dtype=xp.float64)
        self._om = xp.empty((C, B) + S, dtype=xp.float64)
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
        self._psis = xp.empty((B, C) + S, dtype=xp.float64)
        self._npsis = xp.empty((B, C) + S, dtype=xp.float64)
        self._shifted = xp.empty((B, C) + S, dtype=xp.float64)
        self._term = xp.empty((B, C) + S, dtype=xp.float64)
        self._sums = xp.empty((B, C, D) + S, dtype=xp.float64)
        self._crow = xp.empty((1, D * N), dtype=xp.float64)

        # --- moments / forces / velocities --------------------------------
        self._tmp = xp.empty((B,) + S, dtype=xp.float64)
        self._denom = xp.empty((B,) + S, dtype=xp.float64)
        self._srho = xp.empty((B,) + S, dtype=xp.float64)
        self._ucom = xp.empty((B, D) + S, dtype=xp.float64)
        self._maskb_psi = xp.empty((B,) + S, dtype=xp.float64)
        self._maskb_vel = xp.empty((B,) + S, dtype=xp.float64)
        self._psi_mask_key = None
        self._vel_mask_key = None

    # ------------------------------------------------------------- lifting
    def _lift(self, arr):
        """View a single-mode array as a one-member batch (no copy)."""
        return arr.reshape((1,) + arr.shape) if self._single else arr

    # ------------------------------------------------------------ streaming
    @hot_path
    def stream(self, f):
        xp = self.xp
        fl = self._lift(f)
        buf = self._fbuf
        if buf.shape != fl.shape or _root_base(buf) is _root_base(fl):
            # repro: allow[REP001] -- cold fallback: the grid was resized
            # (plane migration) or the caller re-passed our own buffer, so
            # the double buffer must be rebuilt
            buf = xp.empty(fl.shape, dtype=xp.float64)
        for k in self._rest:
            buf[:, :, k] = fl[:, :, k]
        for k, plan in self._stream_plans:
            fk = fl[:, :, k]
            bk = buf[:, :, k]
            for dst, src in plan:
                bk[dst] = fk[src]
        self._fbuf = fl  # the old populations become next step's target
        return buf[0] if self._single else buf

    @hot_path
    def bounce_back(self, f):
        if self._n_solid == 0:
            return
        xp = self.xp
        fl = self._lift(f)
        B, C = fl.shape[:2]
        Q, N = self.lattice.Q, self.n_points
        try:
            fv = fl.view()
            fv.shape = (B * C, Q * N)
        except AttributeError:
            # Non-contiguous populations: direction-reversal via a full
            # reversed copy per member/component (cold fallback).
            for b in range(B):
                for c in range(C):
                    fc = fl[b, c]
                    # repro: allow[REP001] -- cold fallback for
                    # non-contiguous populations; the step loop always
                    # passes contiguous state
                    rev = xp.take(fc, self._opp, axis=0)
                    # repro: allow[REP001] -- same cold fallback as above
                    fc[...] = xp.where(self._solid, rev, fc)
            return
        scratch = self._bounce_scratch
        for i in range(B * C):
            row = fv[i]
            xp.take(row, self._gather_idx, out=scratch, mode="clip")
            # f_new[opp(k), s] = f_old[k, s] <=> f_k <- f_opp(k) at solids.
            row[self._scatter_idx] = scratch

    # ---------------------------------------------------------- equilibrium
    @hot_path
    def _equilibrium_into(self, n, u, feq):
        """Reference-ordered equilibrium of one component across the
        batch: *n* is number density ``(B, *S)``, *u* velocity
        ``(B, D, *S)``, *feq* the output ``(B, Q, *S)``; all per-element
        operations in the exact reference sequence."""
        xp = self.xp
        B = self.batch
        D, Q, N = self.lattice.D, self.lattice.Q, self.n_points
        u_mat = u.reshape(B, D, N)
        cu_mat = self._cu_mat
        xp.matmul(self._cf, u_mat, out=cu_mat)  # c . u, one stacked GEMM
        # usq in einsum index order: u0*u0 + u1*u1 (+ u2*u2)
        xp.multiply(u[:, 0], u[:, 0], out=self._usq)
        for d in range(1, D):
            xp.multiply(u[:, d], u[:, d], out=self._sq)
            self._usq += self._sq
        feq_mat = feq.reshape(B, Q, N)
        xp.multiply(cu_mat, cu_mat, out=feq_mat)
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
        xp = self.xp
        rho_l = self._lift(rho_n)
        u_l = u.reshape((1,) + u.shape) if self._single else u
        if rho_l.shape != (self.batch,) + self.shape:
            raise ValueError(
                f"rho shape {rho_n.shape} != backend grid {self.shape}"
            )
        if out is None:
            # repro: allow[REP001] -- out=None is the cold convenience form
            # (diagnostics, tests); the step loop always passes a buffer
            out = xp.empty(
                (self.batch, self.lattice.Q) + self.shape, dtype=xp.float64
            )
            out_l = out
        else:
            out_l = self._lift(out)
        self._n[...] = rho_l
        self._equilibrium_into(self._n, u_l, out_l)
        return out_l[0] if self._single else out_l

    # ------------------------------------------------------------ collision
    @hot_path
    def collide_bgk(self, f, rho, u_eq, mask):
        xp = self.xp
        fl = self._lift(f)
        rho_l = self._lift(rho)
        u_l = self._lift(u_eq)
        if mask is not self._omega_key:
            # Masks are long-lived solver/ensemble arrays; rebuild the
            # materialised omega*mask fields only when identity changes.
            for c in range(self.n_components):
                self._om[c, ...] = (1.0 / self.taus[c]) * mask
            self._omega_key = mask
        feq = self._feq
        for c in range(self.n_components):
            xp.divide(rho_l[:, c], self.masses[c], out=self._n)
            self._equilibrium_into(self._n, u_l[:, c], feq)
            fc = fl[:, c]
            xp.subtract(feq, fc, out=feq)  # feq -= f
            om = self._om[c]
            for k in range(self.lattice.Q):  # feq *= omega * mask
                feq[:, k] *= om
            fc += feq  # f += omega * (feq - f) on masked nodes

    # ------------------------------------------------------------ Shan-Chen
    @hot_path
    def shan_chen_force(self, psis, out=None):
        xp = self.xp
        psis_l = self._lift(psis)
        if out is None:
            # repro: allow[REP001] -- out=None is the cold convenience form
            # (diagnostics, tests); the step loop always passes a buffer
            out = xp.empty(
                (self.batch, self.n_components, self.lattice.D) + self.shape,
                dtype=xp.float64,
            )
            out_l = out
        else:
            out_l = self._lift(out)
        B, C, D, N = (
            self.batch, self.n_components, self.lattice.D, self.n_points,
        )
        sums = self._sums
        sums.fill(0.0)
        shifted, term = self._shifted, self._term
        for plan, terms in self._psi_terms:  # lattice.moving order
            for dst, src in plan:
                shifted[dst] = psis_l[src]
            for d, coeff in terms:
                xp.multiply(shifted, coeff, out=term)
                sums[:, :, d] += term
        xp.negative(psis_l, out=self._npsis)
        crow = self._crow
        for b in range(B):  # per-member coupling: the exact tensordot GEMM
            smat = sums[b].reshape(C, D * N)
            for sigma in range(C):
                xp.dot(self._g_rows[b, sigma:sigma + 1], smat, out=crow)
                coupled = crow.reshape((D,) + self.shape)
                npsi = self._npsis[b, sigma]
                for d in range(D):
                    xp.multiply(npsi, coupled[d], out=out_l[b, sigma, d])
        return out_l[0] if self._single else out_l

    # -------------------------------------------------------------- moments
    @hot_path
    def moments(self, f, rho_out, mom_out):
        xp = self.xp
        fl = self._lift(f)
        rho_l = self._lift(rho_out)
        mom_l = self._lift(mom_out)
        B, C = fl.shape[:2]
        Q, D, N = self.lattice.Q, self.lattice.D, self.n_points
        for c in range(C):
            fv = fl[:, c].reshape(B, Q, N)
            rv = rho_l[:, c].reshape(B, N)
            mv = mom_l[:, c].reshape(B, D, N)
            xp.sum(fv, axis=1, out=rv)
            xp.matmul(self._cfT, fv, out=mv)
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
    def forces_and_velocities(
        self,
        rho,
        mom,
        force,
        u_eq,
        *,
        accel,
        psi_mask,
        vel_mask,
        adhesion=None,
        wall_field=None,
    ):
        xp = self.xp
        rho_l = self._lift(rho)
        mom_l = self._lift(mom)
        force_l = self._lift(force)
        u_l = self._lift(u_eq)
        accel_l = self._lift(accel)
        B, C, D = self.batch, self.n_components, self.lattice.D
        psi_m = self._mask_field(psi_mask, self._maskb_psi, "_psi_mask_key")
        vel_m = self._mask_field(vel_mask, self._maskb_vel, "_vel_mask_key")

        psis = self._psis
        if self.psi is psi_identity:
            for c in range(C):
                xp.multiply(rho_l[:, c], psi_m, out=psis[:, c])
        else:
            for c in range(C):
                # Arbitrary psi callables allocate (invisible to REP001's
                # numpy sets); the identity fast path above is the hot loop.
                psis[:, c, ...] = self.psi(rho_l[:, c])
                psis[:, c] *= psi_m

        self.shan_chen_force(
            psis[0] if self._single else psis, out=force
        )
        tmp = self._tmp
        for c in range(C):  # force += accel * rho
            for d in range(D):
                xp.multiply(accel_l[:, c, d], rho_l[:, c], out=tmp)
                force_l[:, c, d] += tmp
        if adhesion is not None and wall_field is not None:
            for ci, g_ads in enumerate(adhesion):
                if g_ads != 0.0:
                    for d in range(D):
                        # reference order: (g_ads * psi) * wall_field
                        xp.multiply(psis[:, ci], float(g_ads), out=tmp)
                        tmp *= wall_field[d]
                        force_l[:, ci, d] -= tmp

        # Common velocity: sequential component sums (= np.sum over C).
        denom, ucom = self._denom, self._ucom
        xp.multiply(rho_l[:, 0], 1.0 / self.taus[0], out=denom)
        for c in range(1, C):
            xp.multiply(rho_l[:, c], 1.0 / self.taus[c], out=tmp)
            denom += tmp
        for d in range(D):
            ud = ucom[:, d]
            xp.multiply(mom_l[:, 0, d], 1.0 / self.taus[0], out=ud)
            for c in range(1, C):
                xp.multiply(mom_l[:, c, d], 1.0 / self.taus[c], out=tmp)
                ud += tmp
        xp.maximum(denom, 1e-300, out=denom)
        for d in range(D):
            ucom[:, d] /= denom

        srho = self._srho
        for c in range(C):
            xp.maximum(rho_l[:, c], 1e-300, out=srho)
            for d in range(D):
                # u_eq = u_common + tau * F / safe_rho, then *= vel_mask
                xp.multiply(force_l[:, c, d], self.taus[c], out=tmp)
                tmp /= srho
                xp.add(ucom[:, d], tmp, out=u_l[:, c, d])
                u_l[:, c, d] *= vel_m
        return psis[0] if self._single else psis
