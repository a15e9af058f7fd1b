"""Kernel backends for the LBM hot path.

See :mod:`repro.lbm.backends.registry` for the backend contract and the
two-entry table of selectable backends,
:mod:`repro.lbm.backends.fused` for the allocation-free fast path (the
default, and what :mod:`repro.lbm.ensemble` stacks) and
:mod:`repro.lbm.backends.reference` for the baseline NumPy kernels (the
oracle).

Select a backend with ``LBMConfig(backend="reference")`` or the
``REPRO_LBM_BACKEND`` environment variable.
"""

from repro.lbm.backends.registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    create_backend,
    get_backend_class,
    resolve_backend_name,
)
from repro.lbm.backends.reference import ReferenceBackend
from repro.lbm.backends.fused import FusedBackend
from repro.lbm.backends.instrumented import KERNEL_NAMES, InstrumentedBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KERNEL_NAMES",
    "KernelBackend",
    "InstrumentedBackend",
    "ReferenceBackend",
    "FusedBackend",
    "available_backends",
    "create_backend",
    "get_backend_class",
    "resolve_backend_name",
]
