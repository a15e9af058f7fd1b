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
   D(D+1)/2`` N-sized monomial fields ``n, n u_i, n u_i u_j`` (10 for
   D3Q19, 6 for D2Q9), so ``feq = M @ basis`` with a constant ``(Q,
   nb)`` matrix from ``lattice.w/cf/cs2``; collision folds ``omega``
   into ``n`` and ends with ``f <- (1 - omega) f + omega feq``.
2. **Moments as one dgemm.**  ``[1; c^T] @ f`` yields density and
   momentum from a single read of ``f``; the mass scaling rides on the
   write-out into the caller's arrays.
3. **Separable Shan-Chen stencil.**  For single-speed lattices whose
   moving directions are the axis links (weight ``w_axis``) and the
   planar diagonals (``w_diag``) — D2Q9 and D3Q19 — the psi gradient
   factors as ``S_d = G_d(x + e_d) - G_d(x - e_d)`` with ``G_d = w_axis
   psi + w_diag sum_{e != d} (psi(x + e) + psi(x - e))``.
4. **Flat-offset rolls and in-place streaming.**  A periodic shift is
   one bulk copy of the flattened slab displaced by its flat offset plus
   block copies repairing the wrapped faces.  Streaming shifts in place:
   one overlapping 1-D copy (a memmove) per component row, the wrapped
   faces' sources saved first.  ``array_equal`` to ``np.roll``.
5. **Column blocks.**  Collision, equilibrium and moments walk the grid
   in blocks of ``min(cap, N rounded up to 16)`` columns: one block of
   scratch, boundaries at multiples of 16 (the rule below), so the cap
   changes no bit.  It is 4 096: D3Q19's equilibrium and basis block,
   0.62 + 0.33 MB, stays in a 2 MiB L2, where 16 384 columns (3.8 MB)
   re-read it from L3 at every row op (``channel_seq`` MLUPS x1.09-1.13).
   Ranks sharing one interpreter (``shares_interpreter``: thread ranks)
   keep 16 384: each extra call is a GIL hand-off, and at 4 096 / 2 048
   ``channel_nonded``'s four thread ranks convoyed (~0.86x / 0.67x).
6. **A batch is a leading axis nothing streams along.**  Built with
   ``g_matrices`` ``(B, C, C)``, the grid is ``(B, *S)``: B members
   sharing the solid mask, every kernel unchanged (a zero batch shift;
   dgemms over ``B N`` columns) but the Shan-Chen coupling, one product
   per run of members sharing a matrix.  So :mod:`repro.lbm.ensemble`
   stacks a sweep, member ``b`` with the bits of its stand-alone run.
7. **Bound calls, replayed.**  On small grids a step costs per NumPy
   call, not per byte, and most of it was the Python between calls.  So
   each kernel, on its first call with a set of operands, binds the flat
   list of ``(callable, args)`` it makes -- per-block, per-row and
   per-component views with ``out`` pre-bound, the BLAS body/tail
   split, the roll copies -- and later calls only replay it
   (:func:`_replay`).  The key is operand identity (or a fresh view of
   the same memory and layout), one entry per kernel: an array a caller
   rebinds (``restore_state``, ensemble repack, plane migration) rebinds
   the list at the next call.  Operands are held strongly, so no id is
   reused while compared and a rebound ``f`` goes at the next call.
   Same calls, operands and order: the same bits.

**Contract.**  Results agree with ``reference`` to <= 1e-12 (a few ULP;
the operation order differs) and every kernel is *piece independent*:
on a contiguous x-slab it returns exactly the bits the full-grid call
returns for those planes.  The parallel driver's overlapped schedule
and the ensemble rely on that to stay bitwise equal to the sequential
solver and to their members' own runs.

**The multiple-of-16 rule.**  OpenBLAS computes the last ``N mod 8``
columns of a product with a different micro-kernel whose rounding
differs, so a column's bits would depend on where its piece ends.
Every product is therefore bound by :meth:`FusedBackend._matmul_calls`,
which hands BLAS a multiple of 16 columns and routes the remainder
through a 16-wide scratch block.

Bounce-back gathers the ``(Q, n_solid)`` populations at the solid nodes
with one ``take``, permutes the rows by ``opp`` and writes them back.
So a solver's scratch is O(f / Q) plus one column block, and the
steady-state ``step()`` allocates nothing grid-sized (the tracemalloc
regression tests); every in-place ufunc runs over same-shape contiguous
operands (row-wise, not stride-0 broadcasts, which buffer in NumPy 2).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod
from operator import is_

import numpy as np

from repro.lbm.backends.registry import KernelBackend
from repro.util.hotpath import hot_path

_FULL = slice(None)

#: Column granularity of every BLAS call (see the module docstring).
_BLOCK = 16

#: Widest column block of collision, equilibrium and moments scratch, a
#: multiple of ``_BLOCK``: L2-sized, or wide for GIL-sharing ranks
#: (module docstring, item 5).
_CACHE_COLUMNS = 4_096
_GIL_COLUMNS = 16_384


_STEP_SEGMENTS = {  # per-axis (dst, src) pairs, the non-wrapping one first
    0: [(_FULL, _FULL)],
    1: [(slice(1, None), slice(0, -1)), (slice(0, 1), slice(-1, None))],
    -1: [(slice(0, -1), slice(1, None)), (slice(-1, None), slice(0, 1))],
}


@lru_cache(maxsize=512)  # pure; every backend build asks again
def _roll_plan(shape: tuple[int, ...], shift: tuple[int, ...]) -> tuple:
    """Flat-offset plan ``(dst_flat, src_flat, fixups)`` for ``buf =
    np.roll(f, shift)`` on the spatial axes of a ``(C, *S)`` slab, ``|shift|
    <= 1`` per axis: one bulk copy ``buf[:, dst_flat] = f[:, src_flat]``
    of the row-major flattened grid does the body, then the *fixups*
    (block copies, leading component slice) redo every wrapped site."""
    n_pts = prod(shape)
    stride, off, per_axis = n_pts, 0, []
    for n, s in zip(shape, shift):
        stride //= n
        s = 0 if n == 1 else int(s)
        off += s * stride
        per_axis.append(_STEP_SEGMENTS[s])
    fixups = tuple(
        ((_FULL, *(p[0] for p in combo)), (_FULL, *(p[1] for p in combo)))
        for combo in list(product(*per_axis))[1:]  # [0] wraps nowhere
    )
    if off >= 0:
        return slice(off, None), slice(0, n_pts - off), fixups
    return slice(0, n_pts + off), slice(-off, None), fixups


def _rows(a: np.ndarray, lead: int) -> np.ndarray:
    """View of *a* with every axis after the first *lead* merged into
    one; raises rather than copy, so a bound call reads and writes *a*
    itself at every replay."""
    v = a.view()
    v.shape = a.shape[:lead] + (-1,)
    return v


def _copy(dst, src) -> tuple:
    """The call ``dst[:] = src``, bound (arrays and memoryviews)."""
    return dst.__setitem__, (_FULL, src)


def _same(held, new) -> bool:
    """Whether calls bound for *held* serve *new*: the same object, or a
    fresh view of the same memory (and writeability) with the same layout."""
    if held is new or not isinstance(held, np.ndarray) or not isinstance(new, np.ndarray):
        return held is new
    layout = (held.shape, held.strides, held.dtype, held.__array_interface__["data"])
    return layout == (new.shape, new.strides, new.dtype, new.__array_interface__["data"])


def _floor_into(out: np.ndarray, a: np.ndarray, floor: float) -> None:
    """``out = max(a, floor)``: ``np.maximum`` takes ``out`` only by
    keyword (a positional one is deprecated in NumPy 2.4)."""
    np.maximum(a, floor, out=out)


@hot_path
def _replay(plan: list) -> None:
    """Run a bound call list (module docstring, item 7)."""
    for fn, args in plan:
        fn(*args)


def _roll_copies(dst: np.ndarray, src: np.ndarray, plan: tuple) -> list:
    """The copies ``dst = np.roll(src, shift)`` on ``(C, *S)`` slabs via
    *plan*: the bulk flat-offset copy, then the wrapped-face fixups."""
    dst_flat, src_flat, fixups = plan
    calls = [_copy(_rows(dst, 1)[:, dst_flat], _rows(src, 1)[:, src_flat])]
    return calls + [_copy(dst[d], src[s]) for d, s in fixups]


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
        or ((links == 1).sum(), (links == 2).sum()) != (2 * D, 2 * D * (D - 1))
        or np.ptp(w[links == 1]) != 0.0 or np.ptp(w[links == 2]) != 0.0
    ):
        raise ValueError(
            f"fused backend requires axis + planar-diagonal single-link "
            f"velocities (D2Q9, D3Q19); lattice {lat.name} is not"
        )
    return float(w[links == 1][0]), float(w[links == 2][0])


class FusedBackend(KernelBackend):
    """Preallocated-scratch, BLAS-driven implementation."""

    name = "fused"

    def __init__(self, config, shape, solid_mask, *, g_matrices=None, shares_interpreter=False):
        """*g_matrices* ``(B, C, C)``: *shape* is ``(B, *S)``, a stack of
        B members with their own coupling matrices; *shares_interpreter*:
        the wide column blocks (module docstring, items 5 and 6)."""
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

        # --- streaming, in place (module docstring, item 4) ---------------
        self._stream_plans = [
            (int(k), _roll_plan(S, batch + lat.shifts[k])) for k in lat.moving
        ]
        grid = np.broadcast_to(0.0, (C,) + S)  # region shapes, no memory
        n_faces = max(sum(grid[s].size for _, s in p[2]) for _, p in self._stream_plans)
        self._faces = np.empty(n_faces, dtype=np.float64)

        # --- bounce-back --------------------------------------------------
        # One flat solid index serves every direction: gather (Q, n_solid),
        # permute the rows by opp, scatter back (``mode="clip"``: unbuffered).
        self._solid = np.flatnonzero(self.solid_mask.ravel())
        self._opp = lat.opp.astype(np.intp)
        self._bounce_at = np.empty((Q, self._solid.size), dtype=np.float64)
        self._bounce_swapped = np.empty_like(self._bounce_at)

        # --- BLAS tail scratch (see _matmul_calls): Q or C rows ----------
        self._tail_in = np.zeros((max(Q, C), _BLOCK), dtype=np.float64)
        self._tail_out = np.zeros_like(self._tail_in)

        # --- equilibrium / collision (one column block of scratch) --------
        # feq = _feq_mat @ [n, n u_i, n u_i u_j (i <= j)]; nb <= Q rows.
        cap = _GIL_COLUMNS if shares_interpreter else _CACHE_COLUMNS
        self.columns = min(cap, -(-N // _BLOCK) * _BLOCK)
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
        self._basis = np.empty((nb, self.columns), dtype=np.float64)
        self._feq = np.empty((Q, self.columns), dtype=np.float64)
        self._omega = np.empty((C, N), dtype=np.float64)
        self._one_minus_omega = np.empty((C, N), dtype=np.float64)

        # --- Shan-Chen ----------------------------------------------------
        # Plans reading a field at x + e_d and x - e_d (buf = roll(psi, s)
        # reads psi(x - s)), copied into scratch or the force rows S_d is
        # built in, so every ufunc runs same-shape.  S is kept in units of
        # w_diag: that factor and the sign of F = -psi (g . S) ride on g.
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
        self._mbuf = np.empty((1 + D, self.columns), dtype=np.float64)
        self._inv_tau_row = (1.0 / self.taus).reshape(1, C)
        self._denom = np.empty(S, dtype=np.float64)
        self._ucommon = np.empty((D,) + S, dtype=np.float64)
        self._srho = np.empty(S, dtype=np.float64)

        # Binder name -> (operands, calls) (module docstring, item 7).
        self._plans: dict[str, tuple[tuple, list]] = {}
        self.binds = 0  # lists bound so far

    # ---------------------------------------------------------------- binding
    def _plan(self, bind, *operands) -> list:
        """The calls *bind* makes for *operands*: the held list while they
        match its operands, else a fresh one (the old entry dropped first)."""
        held = self._plans.get(bind.__name__)
        if held is not None and (
            all(map(is_, held[0], operands)) or all(map(_same, held[0], operands))
        ):
            return held[1]
        self._plans.pop(bind.__name__, None)
        calls = bind(*operands)
        self._plans[bind.__name__] = (operands, calls)
        self.binds += 1
        return calls

    def _matmul_calls(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list:
        """``out = a @ b`` (2-D views) in multiples of ``_BLOCK`` columns;
        what the tail scratch holds past the remainder is never read."""
        n = b.shape[1]
        body = n - n % _BLOCK
        calls = [(np.matmul, (a, b[:, :body], out[:, :body]))] if body else []
        if body < n:
            m, k = a.shape
            tail_in, tail_out = self._tail_in[:k], self._tail_out[:m]
            calls.append(_copy(tail_in[:, : n - body], b[:, body:]))
            calls.append((np.matmul, (a, tail_in, tail_out)))
            calls.append(_copy(out[:, body:], tail_out[:, : n - body]))
        return calls

    def _blocks(self, n: int):
        """``(cols, width)`` of each column block of an *n*-column call."""
        w = self.columns
        return ((slice(i, i + w), min(w, n - i)) for i in range(0, n, w))

    # ------------------------------------------------------------ streaming
    @hot_path
    def stream(self, f: np.ndarray) -> np.ndarray:
        _replay(self._plan(self._bind_stream, f))
        return f

    def _bind_stream(self, f: np.ndarray) -> list:
        """Per moving direction: save the wrapped faces' sources, shift
        each component row by one overlapping 1-D copy, write the faces
        back.  A memoryview row shift is one ``memmove``; NumPy copies an
        overlapping shift element by element, 2-4x slower."""
        calls, rows = [], _rows(f, 2)
        for k, (dst_flat, src_flat, fixups) in self._stream_plans:
            fk, at, restores = f[:, k], 0, []
            for d, s in fixups:
                face = self._faces[at : at + fk[s].size].reshape(fk[s].shape)
                at += face.size
                calls.append(_copy(face, fk[s]))
                restores.append(_copy(fk[d], face))
            for row in map(memoryview, rows[:, k]):
                calls.append(_copy(row[dst_flat], row[src_flat]))
            calls += restores
        return calls

    @hot_path
    def bounce_back(self, f: np.ndarray) -> None:
        _replay(self._plan(self._bind_bounce_back, f))

    def _bind_bounce_back(self, f: np.ndarray) -> list:
        calls, solid = [], self._solid
        at, swapped = self._bounce_at, self._bounce_swapped
        for fc in _rows(f, 2) if solid.size else ():
            calls += [
                (fc.take, (solid, 1, at, "clip")),
                # f_new[k, s] = f_old[opp(k), s] at every solid node s.
                (at.take, (self._opp, 0, swapped, "clip")),
                (fc.__setitem__, ((_FULL, solid), swapped)),
            ]
        return calls

    # ---------------------------------------------------------- equilibrium
    def _feq_calls(self, u: np.ndarray, basis: np.ndarray, out: np.ndarray) -> list:
        """``out`` ``(Q, w)`` ``<- feq(basis[0], u)`` for one column block."""
        D = self.lattice.D
        calls = [(np.multiply, (basis[0], u[i], basis[1 + i])) for i in range(D)]
        for col, (i, j) in enumerate(self._pairs, 1 + D):
            calls.append((np.multiply, (basis[1 + i], u[j], basis[col])))
        return calls + self._matmul_calls(self._feq_mat, basis, out)

    @hot_path
    def equilibrium(self, rho_n, u, out: np.ndarray | None = None) -> np.ndarray:
        if out is not None:
            _replay(self._plan(self._bind_equilibrium, rho_n, u, out))
            return out
        # repro: allow[REP001] -- out=None is the cold convenience form
        # (diagnostics, tests); the step loop always passes a buffer
        out = np.empty((self.lattice.Q,) + self.shape, dtype=np.float64)
        _replay(self._bind_equilibrium(rho_n, u, out))  # a throwaway list
        return out

    def _bind_equilibrium(self, rho_n, u, out) -> list:
        if (rho_n.shape, u.shape) != (self.shape, (self.lattice.D,) + self.shape):
            raise ValueError(f"rho {rho_n.shape} / u {u.shape} off grid {self.shape}")
        calls, rows, n, u_rows = [], _rows(out, 1), _rows(rho_n, 0), _rows(u, 1)
        for cols, w in self._blocks(self.n_points):
            basis = self._basis[:, :w]
            calls.append(_copy(basis[0], n[cols]))
            calls += self._feq_calls(u_rows[:, cols], basis, rows[:, cols])
        return calls

    # ------------------------------------------------------------ collision
    @hot_path
    def collide_bgk(self, f, rho, u_eq, mask) -> None:
        _replay(self._plan(self._bind_collide_bgk, f, rho, u_eq, mask))

    def _bind_collide_bgk(self, f, rho, u_eq, mask) -> list:
        # The omega*mask products, rebuilt with every binding: masks are
        # long-lived solver arrays, so that is once per run or migration.
        for ci in range(self.n_components):
            omega = self._omega[ci]
            np.multiply(mask, 1.0 / self.taus[ci], out=omega.reshape(self.shape))
            np.subtract(1.0, omega, out=self._one_minus_omega[ci])
        # BGK in the relaxed form f <- (1 - omega) f + omega feq, with
        # omega folded into the number density the dgemm sees.  Masked
        # (solid) nodes have omega = 0, so f passes through unchanged.
        calls = []
        for ci in range(self.n_components):
            fc, rho_c, u_c = _rows(f[ci], 1), _rows(rho[ci], 0), _rows(u_eq[ci], 1)
            for cols, w in self._blocks(fc.shape[1]):
                basis, feq = self._basis[:, :w], self._feq[:, :w]
                n_omega, om1 = basis[0], self._one_minus_omega[ci, cols]
                calls += [
                    (np.divide, (rho_c[cols], self.masses[ci], n_omega)),
                    (np.multiply, (n_omega, self._omega[ci, cols], n_omega)),
                    *self._feq_calls(u_c[:, cols], basis, feq),
                ]
                for frow, feq_k in zip(fc[:, cols], feq):
                    calls += [(np.multiply, (frow, om1, frow)), (np.add, (frow, feq_k, frow))]
        return calls

    # ------------------------------------------------------------ Shan-Chen
    @hot_path
    def shan_chen_force(self, psis, out: np.ndarray | None = None) -> np.ndarray:
        if out is not None:
            _replay(self._plan(self._shan_chen_calls, psis, out))
            return out
        # repro: allow[REP001] -- out=None is the cold convenience form
        # (diagnostics, tests); the step loop always passes a buffer
        out = np.empty((self.n_components, self.lattice.D) + self.shape, dtype=np.float64)
        _replay(self._shan_chen_calls(psis, out))  # a throwaway list
        return out

    def _shan_chen_calls(self, psis: np.ndarray, out: np.ndarray) -> list:
        D = self.lattice.D
        rm, gsum, nbr = self._roll_m, self._gsum, self._nbr
        calls = []
        for e, (plan_p, plan_m) in enumerate(self._axis_plans):
            calls += _roll_copies(nbr[e], psis, plan_p) + _roll_copies(rm, psis, plan_m)
            calls.append((np.add, (nbr[e], rm, nbr[e])))
        gsum_rows = _rows(gsum, 1)
        for d, (plan_p, plan_m) in enumerate(self._axis_plans):
            calls.append((np.multiply, (psis, self._axis_ratio, gsum)))
            calls += [(np.add, (gsum, nbr[e], gsum)) for e in range(D) if e != d]
            # S_d = G_d(x + e_d) - G_d(x - e_d), built in out[:, d].
            sd = out[:, d]
            calls += _roll_copies(sd, gsum, plan_p) + _roll_copies(rm, gsum, plan_m)
            calls.append((np.subtract, (sd, rm, sd)))
            # gsum is free again: it takes -(g w_diag) . S_d, then psi.
            for cols, neg_gw in self._neg_gw:
                calls += self._matmul_calls(neg_gw, _rows(sd, 1)[:, cols], gsum_rows[:, cols])
            calls.append((np.multiply, (gsum, psis, sd)))
        return calls

    # -------------------------------------------------------------- moments
    @hot_path
    def moments(self, f, rho_out, mom_out) -> None:
        _replay(self._plan(self._bind_moments, f, rho_out, mom_out))

    def _bind_moments(self, f, rho_out, mom_out) -> list:
        calls = []
        for ci, mass in enumerate(self.masses):
            fc, rho_c, mom_c = _rows(f[ci], 1), _rows(rho_out[ci], 0), _rows(mom_out[ci], 1)
            for cols, w in self._blocks(fc.shape[1]):
                mbuf = self._mbuf[:, :w]
                calls += self._matmul_calls(self._mom_mat, fc[:, cols], mbuf)
                # Mass scaling on the write-out, row by row: contiguous
                # and buffer-free for x-slab pieces too.
                for r, dst in enumerate([rho_c[cols], *mom_c[:, cols]]):
                    calls.append((np.multiply, (mbuf[r], mass, dst)))
        return calls

    @hot_path
    def forces_and_velocities(
        self, rho, mom, force, u_eq, *, accel, psi_mask, vel_mask, adhesion=None, wall_field=None
    ) -> np.ndarray:
        ops = (rho, mom, force, u_eq, accel, psi_mask, vel_mask, adhesion, wall_field)
        _replay(self._plan(self._bind_forces_and_velocities, *ops))
        return self._psis

    def _bind_forces_and_velocities(
        self, rho, mom, force, u_eq, accel, psi_mask, vel_mask, adhesion, wall_field
    ) -> list:
        C, D = self.n_components, self.lattice.D
        psis, denom, ucommon, srho = self._psis, self._denom, self._ucommon, self._srho
        # psi(rho) = rho, row-wise: see the module docstring.
        calls = [(np.multiply, (rho[ci], psi_mask, psis[ci])) for ci in range(C)]
        calls += self._shan_chen_calls(psis, force)
        # u_eq is scratch until the velocity calls below fill it.
        for c, d in product(range(C), range(D)):
            calls.append((np.multiply, (accel[c, d], rho[c], u_eq[c, d])))
        calls.append((np.add, (force, u_eq, force)))
        if adhesion is not None and wall_field is not None:
            for ci, g_ads in enumerate(adhesion):
                for d in range(D) if g_ads != 0.0 else ():
                    ue, fd = u_eq[ci, d], force[ci, d]
                    calls += [
                        (np.multiply, (psis[ci], wall_field[d], ue)),
                        (np.multiply, (ue, g_ads, ue)),
                        (np.subtract, (fd, ue, fd)),
                    ]
        for src, dst in ((rho, denom), (mom, ucommon)):
            calls += self._matmul_calls(self._inv_tau_row, _rows(src, 1), _rows(dst[None], 1))
        calls.append((_floor_into, (denom, denom, 1e-300)))
        calls += [(np.divide, (ucommon[d], denom, ucommon[d])) for d in range(D)]
        for ci in range(C):
            calls.append((_floor_into, (srho, rho[ci], 1e-300)))
            calls.append((np.multiply, (force[ci], self.taus[ci], u_eq[ci])))
            # Row-wise to stay buffer-free; the ucommon add is same-shape.
            for d, ued in enumerate(u_eq[ci]):
                calls += [(np.divide, (ued, srho, ued)), (np.add, (ued, ucommon[d], ued))]
                calls.append((np.multiply, (ued, vel_mask, ued)))
        return calls
