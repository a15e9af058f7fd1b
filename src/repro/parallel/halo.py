"""Halo (ghost-plane) exchange on the x ring, blocking or overlapped.

Per phase the parallel LBM synchronizes twice (Figure 2):

- line 8: the distribution functions about to stream across the subdomain
  boundary — exactly the populations with ``c_x > 0`` travel to the right
  neighbour and those with ``c_x < 0`` to the left (the paper's direction
  groups 1..5 / 2..6 for its D3Q19 numbering);
- line 14: the number densities of both components, needed by the
  Shan-Chen interaction force at boundary planes.

Both are one protocol: a *quantity* only fixes the leading index of what
each direction ships — ``(:, dirs)`` for the populations, ``(:,)`` for a
per-component scalar field — and which totals the traffic adds to.

The slabs form a periodic ring: rank ``r`` receives its low ghost plane
from rank ``r - 1`` and its high one from ``r + 1`` (mod the world
size); a ring of size 1 wraps its own planes locally.

**Overlap.**  The exchange is split into :meth:`~HaloExchanger.begin_f`
(or :meth:`~HaloExchanger.begin_scalar`) and :meth:`~HaloExchanger.finish`:
``begin`` snapshots the boundary data, posts nonblocking sends and
receives, and returns a :class:`PendingHalo`; ``finish`` waits and
fills the ghosts.  The driver computes its interior between the two
calls, hiding the transport latency.  Calling them back-to-back *is*
the blocking exchange —
:meth:`~HaloExchanger.exchange_f`/:meth:`~HaloExchanger.exchange_scalar`
do exactly that — so both schedules are bit-identical by construction.

With an enabled :class:`repro.obs.Observer` the exchanger counts the
bytes it ships (``halo.f.bytes`` / ``halo.scalar.bytes``) and the
*exposed* communication time — seconds spent blocked inside request
waits, i.e. latency the compute did not hide (``halo.f.wait_s`` /
``halo.scalar.wait_s``).  The cumulative per-exchanger totals
(``bytes[q]`` / ``wait_seconds[q]`` for ``q`` in ``"f"``, ``"scalar"``)
are kept too — the waits unconditionally (two clock reads per wait), so
benchmarks can read them without tracing overhead.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.lbm.lattice import Lattice
from repro.obs.observer import NULL_OBSERVER
from repro.parallel.api import Communicator, Request

#: Exchanged quantities.
QUANTITIES = ("f", "scalar")


class PendingHalo:
    """An in-flight exchange: the posted receives plus the local boundary
    snapshots (used directly when the ring has size 1)."""

    __slots__ = ("array", "quantity", "from_left", "from_right")

    def __init__(
        self,
        array: np.ndarray,
        quantity: str,
        from_left: Request | np.ndarray,
        from_right: Request | np.ndarray,
    ):
        self.array = array
        self.quantity = quantity
        self.from_left = from_left
        self.from_right = from_right


class HaloExchanger:
    """Fills the two ghost planes of one rank's slab arrays."""

    def __init__(
        self,
        lattice: Lattice,
        comm: Communicator,
        observer=NULL_OBSERVER,
    ):
        self.lattice = lattice
        self.comm = comm
        self.observer = observer
        self.right_dirs = lattice.directions_with(0, +1)
        self.left_dirs = lattice.directions_with(0, -1)
        #: Per quantity and message direction (R: to the right
        #: neighbour, L: to the left): the leading index of the slices
        #: that direction ships.
        self._lead = {
            "f": {
                "R": (slice(None), self.right_dirs),
                "L": (slice(None), self.left_dirs),
            },
            "scalar": dict.fromkeys("RL", (slice(None),)),
        }
        rank, size = comm.rank, comm.size
        self.x_prev = (rank - 1) % size  # supplies the low ghost plane
        self.x_next = (rank + 1) % size
        #: Cumulative payload bytes sent by this rank (only tracked when
        #: the observer is enabled; stay 0 otherwise).
        self.bytes = dict.fromkeys(QUANTITIES, 0)
        #: Cumulative exposed wait (seconds blocked in request waits) —
        #: tracked unconditionally so the halo benchmark needs no tracing.
        self.wait_seconds = dict.fromkeys(QUANTITIES, 0.0)
        if observer.enabled:
            self._counters = {
                q: (
                    observer.counter(f"halo.{q}.bytes"),
                    observer.counter(f"halo.{q}.wait_s"),
                )
                for q in QUANTITIES
            }

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _timed_wait(req: Request | np.ndarray) -> tuple[np.ndarray, float]:
        """Resolve a posted receive, returning ``(payload, seconds
        blocked)``; local snapshots (size-1 rings) resolve instantly."""
        if isinstance(req, np.ndarray):
            return req, 0.0
        t0 = time.perf_counter()
        payload = req.wait()
        return payload, time.perf_counter() - t0

    def _count(self, quantity: str, *sent: np.ndarray) -> None:
        if self.observer.enabled:
            nbytes = sum(part.nbytes for part in sent)
            self.bytes[quantity] += nbytes
            self._counters[quantity][0].add(nbytes)

    # ----------------------------------------------------------- protocol
    def begin_f(self, f: np.ndarray, phase: Any) -> PendingHalo:
        """Snapshot the boundary populations and post the nonblocking
        exchange for *f* (shape ``(C, Q, ln+2, *cross)``)."""
        return self._begin(f, ("halo_f", phase), "f")

    def begin_scalar(
        self, field: np.ndarray, phase: Any, kind: str
    ) -> PendingHalo:
        """Snapshot the boundary planes of a per-component scalar field
        (shape ``(C, ln+2, *cross)``) and post its exchange."""
        return self._begin(field, (kind, phase), "scalar")

    def _begin(
        self, array: np.ndarray, tag: tuple, quantity: str
    ) -> PendingHalo:
        lead = self._lead[quantity]
        send_right = np.ascontiguousarray(array[lead["R"] + (-2,)])
        send_left = np.ascontiguousarray(array[lead["L"] + (1,)])
        self._count(quantity, send_right, send_left)
        if self.comm.size == 1:
            return PendingHalo(array, quantity, send_right, send_left)
        # Direction-specific tags: with 2 ranks the previous and next
        # neighbour are the same peer, so the two messages must not alias.
        comm = self.comm
        comm.isend(self.x_next, (*tag, "R"), send_right)
        comm.isend(self.x_prev, (*tag, "L"), send_left)
        from_left = comm.irecv(self.x_prev, (*tag, "R"))
        from_right = comm.irecv(self.x_next, (*tag, "L"))
        return PendingHalo(array, quantity, from_left, from_right)

    def finish(self, pending: PendingHalo) -> None:
        """Wait for both receives and fill the ghost planes."""
        array, quantity = pending.array, pending.quantity
        lead = self._lead[quantity]
        from_left, wait_l = self._timed_wait(pending.from_left)
        from_right, wait_r = self._timed_wait(pending.from_right)
        wait = wait_l + wait_r
        array[lead["R"] + (0,)] = from_left
        array[lead["L"] + (-1,)] = from_right
        self.wait_seconds[quantity] += wait
        if self.observer.enabled:
            self._counters[quantity][1].add(wait)

    def exchange_f(self, f: np.ndarray, phase: Any) -> None:
        """Blocking exchange: ``begin`` + ``finish`` back to back."""
        self.finish(self.begin_f(f, phase))

    def exchange_scalar(
        self, field: np.ndarray, phase: Any, kind: str
    ) -> None:
        """Blocking exchange: ``begin`` + ``finish`` back to back."""
        self.finish(self.begin_scalar(field, phase, kind))
