"""Metric primitives for the observability layer.

Three instrument kinds, all thread-safe (ranks in
:mod:`repro.parallel.threads` share one registry):

``Counter``
    Monotonically increasing float/int total — halo bytes shipped,
    planes migrated, events emitted.

``Gauge``
    Last-written value — current plane count, current slab points.

``Histogram``
    Streaming summary of a sample distribution: count, sum, min, max and
    the sum of reciprocals, so both the arithmetic **and harmonic** mean
    are available.  The harmonic mean mirrors
    :func:`repro.core.prediction.harmonic_mean` — the paper's load-index
    filter — so a trace can be post-processed with exactly the statistic
    the remapper used online.  Histograms over the same bucket bounds
    merge associatively (fold per-rank histograms into a cluster-wide
    one in any order).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

#: Default bucket upper bounds (seconds) for span-duration histograms.
DEFAULT_BOUNDS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Counter:
    """Monotonic accumulator; ``add`` rejects negative increments."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic; got increment {amount}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"kind": "counter", "name": self.name, "value": self._value}


class Gauge:
    """Last-value-wins instrument."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"kind": "gauge", "name": self.name, "value": self._value}


@dataclass
class Histogram:
    """Streaming distribution summary with fixed bucket bounds.

    ``bucket_counts[i]`` counts samples ``<= bounds[i]``; the final slot
    counts the overflow.  ``sum_reciprocals`` accumulates ``1/x`` for
    positive samples so :meth:`harmonic_mean` matches
    :func:`repro.core.prediction.harmonic_mean` on the same data.
    """

    name: str
    bounds: tuple[float, ...] = DEFAULT_BOUNDS
    count: int = 0
    total: float = 0.0
    sum_reciprocals: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    bucket_counts: list[int] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if tuple(self.bounds) != tuple(sorted(self.bounds)):
            raise ValueError(f"bucket bounds must be sorted, got {self.bounds}")
        self.bounds = tuple(float(b) for b in self.bounds)
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)
        elif len(self.bucket_counts) != len(self.bounds) + 1:
            raise ValueError(
                f"need {len(self.bounds) + 1} bucket counts, "
                f"got {len(self.bucket_counts)}"
            )

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.name!r} got non-finite {value}")
        with self._lock:
            self.count += 1
            self.total += value
            if value > 0:
                self.sum_reciprocals += 1.0 / value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.bucket_counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def harmonic_mean(self) -> float:
        """Harmonic mean of the positive samples seen so far (the paper's
        spike-resistant load-index filter); 0 before any sample."""
        if self.count == 0 or self.sum_reciprocals == 0.0:
            return 0.0
        return self.count / self.sum_reciprocals

    def snapshot(self) -> dict:
        return {
            "kind": "histogram",
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "harmonic_mean": self.harmonic_mean(),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    ``counter``/``gauge``/``histogram`` are get-or-create; asking for an
    existing name with a different kind raises, so one registry can be
    shared by every rank thread without silent aliasing.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, factory):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = factory()
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name=name, bounds=bounds)
        )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready snapshot of every instrument, keyed by name."""
        with self._lock:
            instruments = list(self._instruments.values())
        return {inst.name: inst.snapshot() for inst in instruments}
