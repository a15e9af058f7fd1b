"""Halo (ghost-plane) exchange, 1-D or 2-D, blocking or overlapped.

Per phase the parallel LBM synchronizes twice (Figure 2):

- line 8: the distribution functions about to stream across the subdomain
  boundary — exactly the populations with ``c_x > 0`` travel to the right
  neighbour and those with ``c_x < 0`` to the left (the paper's direction
  groups 1..5 / 2..6 for its D3Q19 numbering); under a 2-D decomposition
  the populations with ``c_y ≠ 0`` additionally cross the column
  boundary;
- line 14: the number densities of both components, needed by the
  Shan-Chen interaction force at boundary planes.

Both are one protocol: a *quantity* only fixes the leading index of what
each direction ships — ``(:, dirs)`` for the populations, ``(:,)`` for a
per-component scalar field — and which totals the traffic adds to.

Both decomposed axes are periodic rings; a ring of size 1 wraps its own
planes locally.

**2-D corner propagation.**  The exchange runs in two ordered stages:
the x stage ships the boundary *planes* over the full padded y extent,
then the y stage ships the boundary *rows* over the full padded x extent
— including the x ghosts just filled — so diagonal populations reach the
corner-adjacent rank in two hops, the classic trick that avoids eight
extra corner messages.  The y stage must therefore run strictly after
the x stage completes.

**Overlap.**  The x stage is split into :meth:`~HaloExchanger.begin_f`
(or :meth:`~HaloExchanger.begin_scalar`) and :meth:`~HaloExchanger.finish`:
``begin`` snapshots the boundary data, posts nonblocking sends and
receives, and returns a :class:`PendingHalo`; ``finish`` waits, fills
the ghosts, and runs the (blocking) y stage.  The driver computes its
interior between the two calls, hiding the transport latency.  Calling
them back-to-back *is* the blocking exchange —
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
from repro.parallel.decomposition import CartTopology

#: Exchanged quantities.
QUANTITIES = ("f", "scalar")


class PendingHalo:
    """An in-flight x-stage exchange: the posted receives plus the local
    boundary snapshots (used directly when the x ring has size 1)."""

    __slots__ = ("array", "tag", "quantity", "from_left", "from_right")

    def __init__(
        self,
        array: np.ndarray,
        tag: tuple,
        quantity: str,
        from_left: Request | np.ndarray,
        from_right: Request | np.ndarray,
    ):
        self.array = array
        self.tag = tag
        self.quantity = quantity
        self.from_left = from_left
        self.from_right = from_right


class HaloExchanger:
    """Fills the ghost planes (and, under 2-D, ghost rows) of one rank's
    subdomain arrays."""

    def __init__(
        self,
        lattice: Lattice,
        comm: Communicator,
        topo: CartTopology,
        observer=NULL_OBSERVER,
    ):
        self.lattice = lattice
        self.comm = comm
        self.observer = observer
        self.right_dirs = lattice.directions_with(0, +1)
        self.left_dirs = lattice.directions_with(0, -1)
        #: Per quantity and message direction (R/L along x, U/D along
        #: y): the leading index of the slices that direction ships.
        self._lead = {
            "f": {
                "R": (slice(None), self.right_dirs),
                "L": (slice(None), self.left_dirs),
                "U": (slice(None), lattice.directions_with(1, +1)),
                "D": (slice(None), lattice.directions_with(1, -1)),
            },
            "scalar": dict.fromkeys("RLUD", (slice(None),)),
        }
        rank = comm.rank
        self.rows = topo.rows
        self.cols = topo.cols
        self.x_prev = topo.neighbour(rank, 0, -1)  # supplies the low-x halo
        self.x_next = topo.neighbour(rank, 0, +1)
        self.y_prev = topo.neighbour(rank, 1, -1)
        self.y_next = topo.neighbour(rank, 1, +1)
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
        """Snapshot the x-boundary populations and post the nonblocking
        x-stage exchange for *f* (shape ``(C, Q, ln+2, *cross)``)."""
        return self._begin(f, ("halo_f", phase), "f")

    def begin_scalar(
        self, field: np.ndarray, phase: Any, kind: str
    ) -> PendingHalo:
        """Snapshot the x-boundary planes of a per-component scalar field
        (shape ``(C, ln+2, *cross)``) and post the x-stage exchange."""
        return self._begin(field, (kind, phase), "scalar")

    def _begin(
        self, array: np.ndarray, tag: tuple, quantity: str
    ) -> PendingHalo:
        lead = self._lead[quantity]
        send_right = np.ascontiguousarray(array[lead["R"] + (-2,)])
        send_left = np.ascontiguousarray(array[lead["L"] + (1,)])
        self._count(quantity, send_right, send_left)
        if self.rows == 1:
            return PendingHalo(array, tag, quantity, send_right, send_left)
        # Direction-specific tags: with 2 bands the previous and next
        # neighbour are the same peer, so the two messages must not alias.
        comm = self.comm
        comm.isend(self.x_next, (*tag, "R"), send_right)
        comm.isend(self.x_prev, (*tag, "L"), send_left)
        from_left = comm.irecv(self.x_prev, (*tag, "R"))
        from_right = comm.irecv(self.x_next, (*tag, "L"))
        return PendingHalo(array, tag, quantity, from_left, from_right)

    def finish(self, pending: PendingHalo) -> None:
        """Wait for the x stage, fill the x ghosts, then run the y stage
        (blocking — it must see the fresh x ghosts for the corners)."""
        array, quantity = pending.array, pending.quantity
        lead = self._lead[quantity]
        from_left, wait_l = self._timed_wait(pending.from_left)
        from_right, wait_r = self._timed_wait(pending.from_right)
        wait = wait_l + wait_r
        array[lead["R"] + (0,)] = from_left
        array[lead["L"] + (-1,)] = from_right
        if self.cols > 1:
            wait += self._exchange_y(array, pending.tag, quantity)
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

    def _exchange_y(
        self, array: np.ndarray, tag: tuple, quantity: str
    ) -> float:
        """The y stage: boundary rows over the *full* padded x extent
        (corner data rides the x ghosts filled a moment ago)."""
        comm = self.comm
        lead = self._lead[quantity]
        every_x = slice(None)
        send_up = np.ascontiguousarray(array[lead["U"] + (every_x, -2)])
        send_down = np.ascontiguousarray(array[lead["D"] + (every_x, 1)])
        self._count(quantity, send_up, send_down)
        comm.isend(self.y_next, (*tag, "U"), send_up)
        comm.isend(self.y_prev, (*tag, "D"), send_down)
        req_down = comm.irecv(self.y_prev, (*tag, "U"))
        req_up = comm.irecv(self.y_next, (*tag, "D"))
        from_down, wait_d = self._timed_wait(req_down)
        from_up, wait_u = self._timed_wait(req_up)
        array[lead["U"] + (every_x, 0)] = from_down
        array[lead["D"] + (every_x, -1)] = from_up
        return wait_d + wait_u
