"""Small timing helpers for harness code and examples."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Timer:
    """Context-manager stopwatch::

        with Timer() as t:
            work()
        print(t.elapsed)

    Re-entering restarts the clock; *elapsed* keeps the last lap and
    *total* accumulates across laps.  A lap aborted by an exception is
    discarded — *elapsed*, *total*, *laps* and therefore *mean* only ever
    reflect laps that ran to completion — and the timer stays reusable.
    """

    elapsed: float = 0.0
    total: float = 0.0
    laps: int = 0
    _start: float | None = field(default=None, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type=None, exc=None, tb=None) -> None:
        if self._start is None:
            raise RuntimeError("Timer exited without entering")
        start, self._start = self._start, None
        if exc_type is not None:
            return
        self.elapsed = time.perf_counter() - start
        self.total += self.elapsed
        self.laps += 1

    @property
    def mean(self) -> float:
        """Mean lap duration (0 before any lap completes)."""
        return self.total / self.laps if self.laps else 0.0
