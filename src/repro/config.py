"""The single place where ``REPRO_*`` environment variables are read.

Every configuration channel the library honours through the environment
is parsed here into one immutable :class:`EnvConfig` snapshot:

``REPRO_LBM_BACKEND``
    Default kernel backend for configs that do not name one: ``fused``
    (what an unset variable also gives) or the ``reference`` oracle
    (:mod:`repro.lbm.backends.registry`).
``REPRO_OBS_TRACE``
    JSONL trace path enabling observability discovery
    (:mod:`repro.obs.observer`).
``REPRO_TRANSPORT``
    Default parallel transport, ``threads`` or ``processes``
    (:mod:`repro.parallel.launch`).
``REPRO_CKPT_DIR`` / ``REPRO_CKPT_EVERY`` / ``REPRO_CKPT_RESUME`` /
``REPRO_CKPT_KEEP``
    Checkpoint store root, snapshot interval, resume flag and retention
    window, applied to every :func:`repro.api.run` by
    :meth:`EnvConfig.overlay`.
``REPRO_SERVE_WORKERS`` / ``REPRO_SERVE_COALESCE`` /
``REPRO_SERVE_RETRIES`` / ``REPRO_SERVE_CACHE``
    Job-scheduler defaults (:mod:`repro.serve`): worker-pool width,
    maximum specs coalesced into one batched execution, retry budget for
    a job whose worker died, and result-cache capacity (0 disables
    caching).

Modules never touch ``os.environ`` themselves — they call
:func:`from_env` (or one of the thin per-subsystem wrappers that do) and
read typed fields.  The REP006 static rule enforces this: any
``os.environ`` / ``os.getenv`` access outside this module fails
``python -m repro.analysis src``.  Entry points that *set* discovery
variables for child layers (the experiments runner CLI) go through
:func:`set_discovery_env` for the same reason.

:meth:`EnvConfig.overlay` applies the snapshot to a
:class:`repro.api.RunSpec`, filling only the fields the spec left
unset — explicit arguments always beat the environment.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

ENV_BACKEND = "REPRO_LBM_BACKEND"
ENV_TRACE = "REPRO_OBS_TRACE"
ENV_TRANSPORT = "REPRO_TRANSPORT"
ENV_CKPT_DIR = "REPRO_CKPT_DIR"
ENV_CKPT_EVERY = "REPRO_CKPT_EVERY"
ENV_CKPT_RESUME = "REPRO_CKPT_RESUME"
ENV_CKPT_KEEP = "REPRO_CKPT_KEEP"
ENV_SERVE_WORKERS = "REPRO_SERVE_WORKERS"
ENV_SERVE_COALESCE = "REPRO_SERVE_COALESCE"
ENV_SERVE_RETRIES = "REPRO_SERVE_RETRIES"
ENV_SERVE_CACHE = "REPRO_SERVE_CACHE"

#: Every variable this module owns, for documentation and tests.
ALL_ENV_VARS = (
    ENV_BACKEND,
    ENV_TRACE,
    ENV_TRANSPORT,
    ENV_CKPT_DIR,
    ENV_CKPT_EVERY,
    ENV_CKPT_RESUME,
    ENV_CKPT_KEEP,
    ENV_SERVE_WORKERS,
    ENV_SERVE_COALESCE,
    ENV_SERVE_RETRIES,
    ENV_SERVE_CACHE,
)

_TRUTHY = {"1", "true", "yes", "on"}


def _clean(environ: Mapping[str, str], var: str) -> str:
    return str(environ.get(var, "")).strip()


@dataclass(frozen=True)
class EnvConfig:
    """Typed snapshot of the ``REPRO_*`` environment family.

    ``None`` / zero-ish defaults mean "the variable is unset"; consumers
    fall back to their own defaults in that case.
    """

    backend: str | None = None
    trace: str | None = None
    transport: str | None = None
    ckpt_dir: str | None = None
    ckpt_every: int = 0
    ckpt_resume: bool = False
    ckpt_keep: int = 3
    serve_workers: int = 2
    serve_coalesce: int = 8
    serve_retries: int = 1
    serve_cache: int = 1024

    def overlay(self, spec: Any) -> Any:
        """Fill a :class:`repro.api.RunSpec`'s unset fields from the
        environment (explicit spec values always win).

        Only run-dispatch fields participate: transport and the
        checkpoint family.  The backend default is resolved where
        configs are built (``LBMConfig.__post_init__``) and the trace
        path where observers are resolved (``resolve_observer``), so a
        spec round-trips through ``overlay`` without duplicating either
        discovery.
        """
        updates: dict[str, Any] = {}
        if spec.transport is None and self.transport is not None:
            updates["transport"] = self.transport
        if (
            self.ckpt_dir is not None
            and spec.checkpoint_dir is None
            and spec.checkpoint_store is None
        ):
            updates["checkpoint_dir"] = self.ckpt_dir
            if spec.checkpoint_every == 0:
                updates["checkpoint_every"] = self.ckpt_every
            if not spec.resume:
                updates["resume"] = self.ckpt_resume
            if spec.checkpoint_keep == type(spec).checkpoint_keep:  # the default
                updates["checkpoint_keep"] = self.ckpt_keep
        if not updates:
            return spec
        return dataclasses.replace(spec, **updates)


def from_env(environ: Mapping[str, str] | None = None) -> EnvConfig:
    """Parse the ``REPRO_*`` family from *environ* (default: the real
    process environment) into an :class:`EnvConfig`."""
    if environ is None:
        environ = os.environ
    return EnvConfig(
        backend=_clean(environ, ENV_BACKEND) or None,
        trace=_clean(environ, ENV_TRACE) or None,
        transport=_clean(environ, ENV_TRANSPORT) or None,
        ckpt_dir=_clean(environ, ENV_CKPT_DIR) or None,
        ckpt_every=int(_clean(environ, ENV_CKPT_EVERY) or 0),
        ckpt_resume=_clean(environ, ENV_CKPT_RESUME).lower() in _TRUTHY,
        ckpt_keep=int(_clean(environ, ENV_CKPT_KEEP) or 3),
        serve_workers=int(_clean(environ, ENV_SERVE_WORKERS) or 2),
        serve_coalesce=int(_clean(environ, ENV_SERVE_COALESCE) or 8),
        serve_retries=int(_clean(environ, ENV_SERVE_RETRIES) or 1),
        serve_cache=int(_clean(environ, ENV_SERVE_CACHE) or 1024),
    )


def set_discovery_env(
    *,
    trace: str | None = None,
    transport: str | None = None,
    ckpt_dir: str | None = None,
    ckpt_every: int | None = None,
    ckpt_resume: bool | None = None,
) -> None:
    """Export discovery variables for the instrumented layers.

    The sanctioned *write* channel: entry points (the experiments
    runner) translate CLI flags into the same environment variables a
    user could have set, so every solver constructed afterwards
    discovers them without plumbing.  ``None`` leaves a variable
    untouched.
    """
    if trace is not None:
        os.environ[ENV_TRACE] = trace
    if transport is not None:
        os.environ[ENV_TRANSPORT] = transport
    if ckpt_dir is not None:
        os.environ[ENV_CKPT_DIR] = ckpt_dir
    if ckpt_every is not None:
        os.environ[ENV_CKPT_EVERY] = str(ckpt_every)
    if ckpt_resume is not None:
        os.environ[ENV_CKPT_RESUME] = "1" if ckpt_resume else "0"
