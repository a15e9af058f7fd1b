"""CPU-availability traces.

A trace gives, for every instant of virtual time, the fraction of full
speed at which the node executes the MPI process (1.0 = dedicated; the
paper's 70%-CPU background job leaves roughly 0.35).  Traces are piecewise
constant and may be extended lazily from a generator so open-ended
workloads (random transient spikes) never run out.

Work integration — "how long does W seconds of full-speed work take when
started at t0" — is the primitive the phase engine builds on; the
monotone :class:`TraceCursor` amortizes the segment walk.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator

from repro.util.validation import check_nonnegative

#: An extender yields (end_time, availability) segments in increasing
#: end_time order, covering time without gaps from the previous end.
SegmentIterator = Iterator[tuple[float, float]]


class AvailabilityTrace:
    """Piecewise-constant availability over [0, inf).

    Parameters
    ----------
    segments:
        List of ``(end_time, availability)`` pairs: the k-th availability
        holds on ``[end_{k-1}, end_k)`` (with end_{-1} = 0).
    tail:
        Availability after the last segment (default 1.0 = idle machine).
    extender:
        Optional generator supplying further segments on demand; when
        present, *tail* is only used if the generator is exhausted.
    contended:
        Whether reduced availability means CPU *contention* (a competing
        job, the paper's scenario — message endpoints then suffer
        scheduling penalties) or merely slower dedicated hardware
        (heterogeneous clusters — no contention penalties).
    """

    def __init__(
        self,
        segments: list[tuple[float, float]] | None = None,
        *,
        tail: float = 1.0,
        extender: SegmentIterator | None = None,
        contended: bool = True,
    ):
        self.contended = bool(contended)
        self._ends: list[float] = []
        self._avails: list[float] = []
        self.tail = self._check_avail(tail)
        self._extender = extender
        last = 0.0
        for end, avail in segments or []:
            if end <= last:
                raise ValueError(
                    f"segment end times must be increasing, got {end} after {last}"
                )
            self._ends.append(float(end))
            self._avails.append(self._check_avail(avail))
            last = end

    @staticmethod
    def _check_avail(value: float) -> float:
        if not 0.0 < value <= 1.0:
            raise ValueError(f"availability must be in (0, 1], got {value!r}")
        return float(value)

    # ------------------------------------------------------------- extension
    def _ensure(self, t: float) -> None:
        """Pull segments from the extender until the trace covers *t*."""
        if self._extender is None:
            return
        while not self._ends or self._ends[-1] <= t:
            try:
                end, avail = next(self._extender)
            except StopIteration:
                self._extender = None
                return
            last = self._ends[-1] if self._ends else 0.0
            if end <= last:
                raise ValueError(
                    f"extender produced non-increasing end time {end} after {last}"
                )
            self._ends.append(float(end))
            self._avails.append(self._check_avail(avail))

    # --------------------------------------------------------------- queries
    def availability(self, t: float) -> float:
        """Availability at time *t* (>= 0)."""
        check_nonnegative(t, "t")
        self._ensure(t)
        idx = bisect_right(self._ends, t)
        if idx < len(self._ends):
            return self._avails[idx]
        return self.tail

    def penalty_availability(self, t: float) -> float:
        """Availability as seen by the scheduling-penalty model: real
        availability for contended traces, 1.0 (no penalty) for merely
        slow dedicated hardware."""
        if not self.contended:
            return 1.0
        return self.availability(t)

    def advance(self, t0: float, work: float) -> float:
        """Earliest t1 with integral of availability over [t0, t1] = *work*
        (seconds of full-speed work)."""
        return TraceCursor(self).advance(t0, work)


class TraceCursor:
    """Monotone reader over a trace: repeated :meth:`advance` /
    :meth:`availability` calls with non-decreasing times walk the segment
    list in amortized O(1)."""

    def __init__(self, trace: AvailabilityTrace):
        self.trace = trace
        self._idx = 0

    def _seek(self, t: float) -> None:
        tr = self.trace
        tr._ensure(t)
        # Mostly-monotone access: scan forward from the cached index, but
        # fall back to a binary search when asked about an earlier time
        # (e.g. evaluating a partner node's trace at a sync point).
        if self._idx > 0 and self._idx - 1 < len(tr._ends) and t < tr._ends[self._idx - 1]:
            self._idx = bisect_right(tr._ends, t)
            return
        while self._idx < len(tr._ends) and tr._ends[self._idx] <= t:
            self._idx += 1

    def availability(self, t: float) -> float:
        check_nonnegative(t, "t")
        self._seek(t)
        tr = self.trace
        if self._idx < len(tr._ends):
            return tr._avails[self._idx]
        return tr.tail

    def advance(self, t0: float, work: float) -> float:
        """Consume *work* seconds of full-speed work starting at *t0*."""
        check_nonnegative(t0, "t0")
        check_nonnegative(work, "work")
        if work == 0.0:
            return t0
        tr = self.trace
        t = t0
        remaining = work
        self._seek(t)
        while True:
            tr._ensure(t)
            if self._idx < len(tr._ends):
                avail = tr._avails[self._idx]
                seg_end = tr._ends[self._idx]
            else:
                avail = tr.tail
                seg_end = float("inf")
            capacity = (seg_end - t) * avail
            if capacity >= remaining:
                return t + remaining / avail
            remaining -= capacity
            t = seg_end
            self._idx += 1
