"""The ``@hot_path`` marker: declaring a function allocation-critical.

The fused kernel backend's steady-state guarantee — zero full-grid
allocation per step, pinned at runtime by the tracemalloc regression test
in ``tests/lbm/test_backends.py`` — only holds while every kernel keeps
writing through its preallocated scratch pool.  Decorating a function
with :func:`hot_path` records that contract in the code itself:

- at runtime the decorator is free (it tags the function and returns it
  unchanged — no wrapper, no call overhead);
- statically, the ``REP001 hot-path-alloc`` checker in
  :mod:`repro.analysis` forbids allocating NumPy constructors and
  non-``out=`` ufunc calls inside any ``@hot_path`` function, so a
  regression is flagged at review time instead of by a slow benchmark.

Every registration lands in :data:`HOT_PATH_REGISTRY` (qualified name ->
function) so tests can assert the fused kernels are actually covered.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)

#: All functions registered via :func:`hot_path`, keyed by
#: ``module.qualname``.
HOT_PATH_REGISTRY: dict[str, Callable] = {}


def hot_path(fn: F) -> F:
    """Mark *fn* as an allocation-free hot path (see module docstring)."""
    fn.__hot_path__ = True  # type: ignore[attr-defined]
    HOT_PATH_REGISTRY[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return fn
