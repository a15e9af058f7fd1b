"""The observer: one handle combining a metrics registry, an event sink
and span-based tracing.

Observability is **off by default**.  Code under instrumentation holds an
observer that is either a real :class:`Observer` or the shared
:data:`NULL_OBSERVER`; hot paths guard on the ``enabled`` flag — a plain
attribute load — so a disabled run performs no event construction, no
timing calls and no allocations on account of the instrumentation.

Spans are built on :class:`repro.util.timers.Timer`: entering a span
starts a lap, exiting records the lap duration into a histogram named
``span.<name>`` and (optionally) emits a ``span`` event.  A span whose
body raises records nothing (the Timer discards aborted laps) but emits
an ``error`` event so the trace shows where a run died.

Enable tracing with ``REPRO_OBS_TRACE=/path/to/trace.jsonl`` or by
passing an :class:`Observer` to the instrumented constructors.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.config import ENV_TRACE, from_env
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sink import EventSink, JsonlSink, MemorySink
from repro.util.timers import Timer

#: Environment variable: path of the JSONL trace to write (empty = off).
#: Parsed by :mod:`repro.config`; re-exported here for compatibility.
TRACE_ENV_VAR = ENV_TRACE

#: Bucket bounds for span-duration histograms (seconds).
SPAN_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class _NullSpan:
    """Reusable do-nothing context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullObserver:
    """The disabled observer: every operation is a no-op.

    A single shared instance (:data:`NULL_OBSERVER`) stands in wherever
    no observer was requested, so instrumented code never needs a
    ``None`` check — only the cheap ``enabled`` guard.
    """

    __slots__ = ()

    enabled = False
    rank: int | None = None

    def emit(self, type_: str, **fields: Any) -> None:
        return None

    def span(self, name: str, emit: bool = True, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str) -> None:
        return None

    def gauge(self, name: str) -> None:
        return None

    def histogram(self, name: str) -> None:
        return None

    def child(self, rank: int) -> "NullObserver":
        return self

    def emit_metrics(self) -> None:
        return None

    def close(self) -> None:
        return None


#: The shared disabled observer.
NULL_OBSERVER = NullObserver()
#: "No trace", already read from the environment (:func:`resolve_observer`).
TRACE_OFF = NullObserver()


class Span:
    """Times one block with a :class:`~repro.util.timers.Timer` lap and
    records the duration under ``span.<name>``."""

    __slots__ = ("_obs", "name", "emit", "fields", "_timer")

    def __init__(
        self, obs: "Observer", name: str, emit: bool, fields: dict[str, Any]
    ):
        self._obs = obs
        self.name = name
        self.emit = emit
        self.fields = fields
        self._timer = Timer()

    def __enter__(self) -> "Span":
        self._timer.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._timer.__exit__(exc_type, exc, tb)
        if exc_type is not None:
            self._obs.emit(
                "error", span=self.name, error=exc_type.__name__, **self.fields
            )
            return False
        self._obs.histogram(f"span.{self.name}").observe(self._timer.elapsed)
        if self.emit:
            self._obs.emit(
                "span", name=self.name, duration=self._timer.elapsed,
                **self.fields,
            )
        return False

    @property
    def elapsed(self) -> float:
        return self._timer.elapsed


class Observer:
    """An enabled observability handle.

    Rank threads share one sink and one registry; :meth:`child` derives a
    per-rank view that stamps its rank onto every event.
    """

    enabled = True

    def __init__(
        self,
        sink: EventSink | None = None,
        registry: MetricsRegistry | None = None,
        rank: int | None = None,
    ):
        self.sink = sink if sink is not None else MemorySink()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.rank = rank

    # -------------------------------------------------------------- events
    def emit(self, type_: str, **fields: Any) -> dict:
        event: dict[str, Any] = {"type": type_}
        if self.rank is not None:
            event["rank"] = self.rank
        event.update(fields)
        return self.sink.emit(event)

    def span(self, name: str, emit: bool = True, **fields: Any) -> Span:
        return Span(self, name, emit, fields)

    # ------------------------------------------------------------- metrics
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name, bounds=SPAN_BOUNDS)

    def emit_metrics(self) -> dict:
        """Emit a ``metrics`` event carrying the full registry snapshot
        (conventionally once, at the end of a run)."""
        return self.emit("metrics", metrics=self.registry.snapshot())

    # ------------------------------------------------------------ plumbing
    def child(self, rank: int) -> "Observer":
        return Observer(sink=self.sink, registry=self.registry, rank=rank)

    def close(self) -> None:
        self.sink.close()


_env_observers: dict[str, Observer] = {}


def observer_from_env(environ=None) -> Observer | NullObserver:
    """The process-default observer: :data:`NULL_OBSERVER` unless
    ``REPRO_OBS_TRACE`` names a trace path, then one cached :class:`Observer`
    per path (solvers in one process append to one trace, not truncate it)."""
    path = from_env(environ).trace
    if not path:
        return NULL_OBSERVER
    key = str(Path(path))
    obs = _env_observers.get(key)
    if obs is None:
        obs = Observer(sink=JsonlSink(key))
        _env_observers[key] = obs
    return obs


#: Union accepted everywhere an observer parameter appears.
ObserverLike = Observer | NullObserver


def resolve_observer(
    observer: "Observer | NullObserver | None" = NULL_OBSERVER, *, once: bool = False
) -> "Observer | NullObserver":
    """Resolve an observer parameter to a concrete handle.

    The shared :data:`NULL_OBSERVER` sentinel (the parameter default
    everywhere, enforced by the REP004 static rule) and ``None`` both
    mean "unspecified" and resolve against ``REPRO_OBS_TRACE``; any
    other observer — including a *fresh* ``NullObserver()`` such as
    :data:`TRACE_OFF`, which force-disables tracing — passes through
    unchanged.  With *once*, "no trace" resolves to :data:`TRACE_OFF`:
    a handle to pass down a call tree that reads the environment once
    (a served sweep: its scheduler, cache and ensembles).
    """
    if observer is None or observer is NULL_OBSERVER:
        obs = observer_from_env()
        return TRACE_OFF if once and obs is NULL_OBSERVER else obs
    return observer
