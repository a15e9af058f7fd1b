"""Spans recorded from outside the program.

The benchmark owns every span: in a traced run it wraps the program's
*public* functions and methods (``api.run``, ``MulticomponentLBM.step``,
``CheckpointStore.commit``, ...) with a timer, runs the unchanged
workload, and removes the wrappers again.  Nothing under ``src/`` knows
it is being traced, and the untraced run never loads the wrappers, so
the difference between the two is the tracing overhead
(``bench.span_overhead_frac``).

A span is ``(id, name, start, end, parent)``; names are
``<layer>.<operation>`` and the layer is the program's module name.
The current span travels in a ``contextvars`` variable, so it follows
asyncio tasks and ``asyncio.to_thread`` workers; plain threads and
forked ranks pass their parent explicitly.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Span = tuple[str, str, float, float, "str | None"]

_CURRENT: contextvars.ContextVar["str | None"] = contextvars.ContextVar(
    "bench_current_span", default=None
)


class Tracer:
    """In-memory span recorder; written out only when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()

    def _new_id(self) -> str:
        # The pid keeps ids unique across forked ranks, which inherit
        # the counter's position.
        return f"{os.getpid()}:{next(self._ids)}"

    @contextmanager
    def span(self, name: str, parent: "str | None" = None) -> Iterator[str]:
        span_id = self._new_id()
        if parent is None:
            parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append((span_id, name, start, time.perf_counter(), parent))
            _CURRENT.reset(token)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*fn* timed as a span called *name* (coroutine functions stay
        coroutine functions)."""
        spans, new_id, clock = self.spans, self._new_id, time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                span_id = new_id()
                parent = _CURRENT.get()
                token = _CURRENT.set(span_id)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append((span_id, name, start, clock(), parent))
                    _CURRENT.reset(token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = new_id()
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((span_id, name, start, clock(), parent))
                _CURRENT.reset(token)

        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def write_jsonl(self, path: str, workload: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "workload": workload,
                        }
                    )
                    + "\n"
                )


class TimedBackend:
    """Delegating kernel backend that records one ``lbm.kernel.*`` span
    per kernel call.  The parallel driver calls the kernels directly
    (not ``MulticomponentLBM.step``), so this is where a traced rank
    separates kernel time from the driver's own."""

    def __init__(self, inner: Any, tracer: Tracer):
        from repro.lbm.backends import KERNEL_NAMES

        self._inner = inner
        for kernel in KERNEL_NAMES:
            setattr(self, kernel, tracer.wrap(getattr(inner, kernel), f"lbm.kernel.{kernel}"))

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


class Patches:
    """The installed wrappers, removable in reverse order."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.tracer.wrap(original, name))

    def function(self, original: Callable[..., Any], name: str) -> None:
        """Replace *original* in every loaded ``repro`` module that
        holds a reference to it (``from repro.api import run`` binds the
        function by name in the importing module)."""
        self._replace(original, self.tracer.wrap(original, name))

    def _replace(self, original: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def backend_factory(self, create_backend: Callable[..., Any]) -> None:
        """Make every backend the program creates a :class:`TimedBackend`."""
        tracer = self.tracer

        @functools.wraps(create_backend)
        def timed_create_backend(*args: Any, **kwargs: Any) -> Any:
            return TimedBackend(create_backend(*args, **kwargs), tracer)

        self._replace(create_backend, timed_create_backend)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, *, kernel_spans: bool = False) -> Patches:
    """Wrap the public boundary of every layer.  Imports the layers
    first so that ``Patches.function`` sees every by-name reference.

    *kernel_spans* additionally times every kernel call; only the
    parallel workloads ask for it (their lattices are large, so ten more
    spans per phase cost nothing, and the driver never calls
    ``MulticomponentLBM.step``)."""
    import repro.api as api
    import repro.ckpt
    import repro.core.policies as policies
    import repro.lbm.diagnostics as diagnostics
    import repro.lbm.ensemble as ensemble
    import repro.parallel.driver as driver
    import repro.parallel.launch as launch
    import repro.scenarios as scenarios
    import repro.serve
    import repro.sweep
    from repro.lbm.solver import MulticomponentLBM

    patches = Patches(tracer)
    if kernel_spans:
        import repro.lbm.backends as backends

        patches.backend_factory(backends.create_backend)
    for attr, name in (
        ("__init__", "lbm.solver_init"),
        ("step", "lbm.step"),
        ("collide", "lbm.collide"),
        ("stream_and_bounce", "lbm.stream_bounce"),
        ("update_moments_and_forces", "lbm.moments_forces"),
        ("restore_state", "lbm.restore_state"),
    ):
        patches.method(MulticomponentLBM, attr, name)
    patches.function(ensemble.run_ensemble, "lbm.run_ensemble")
    patches.function(diagnostics.effective_slip_fraction, "lbm.slip_diagnostics")

    patches.function(api.run, "api.run")
    patches.function(api.run_batch, "api.run_batch")
    patches.function(api.spec_fingerprint, "api.fingerprint")
    patches.function(api.batch_compatible, "api.batch_compatible")

    patches.function(launch.launch_spmd, "parallel.launch")
    patches.function(driver.assemble_global_f, "parallel.assemble")
    for attr, name in (
        ("__init__", "parallel.driver_init"),
        ("run", "parallel.driver_run"),
        ("step_phase", "parallel.step_phase"),
        ("maybe_remap", "parallel.maybe_remap"),
    ):
        patches.method(driver.ParallelLBM, attr, name)

    patches.function(policies.window_proposal, "core.window_proposal")

    for attr in ("write_shard", "commit", "prune", "save_solver", "restore_solver"):
        patches.method(repro.ckpt.CheckpointStore, attr, f"ckpt.{attr}")

    patches.method(repro.serve.Scheduler, "submit", "serve.submit")
    patches.function(repro.sweep.run_sweep, "sweep.run_sweep")

    for cls in (
        scenarios.HomogeneousScenario,
        scenarios.RoughScenario,
        scenarios.PatternedScenario,
    ):
        for attr in ("solid_mask", "wall_accel"):
            if attr in cls.__dict__:
                patches.method(cls, attr, f"scenarios.{attr}")
    return patches


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span id: the span's duration minus the part of that
    interval its direct children cover (children may overlap each other
    when they ran on different threads or ranks)."""
    children: dict[str, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for span_id, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed by layer (the part of the span name before the
    first dot)."""
    per_span = self_times(spans)
    layers: dict[str, float] = {}
    for span_id, name, *_ in spans:
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + per_span[span_id]
    return layers
