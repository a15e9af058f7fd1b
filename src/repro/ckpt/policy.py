"""Checkpoint policy: where and how often a run checkpoints itself.

The ``REPRO_CKPT_DIR`` / ``REPRO_CKPT_EVERY`` / ``REPRO_CKPT_RESUME`` /
``REPRO_CKPT_KEEP`` environment variables are parsed by
:func:`repro.config.from_env` and applied to every
:func:`repro.api.run` (and so every ``run_batch`` fallback and
experiments-runner run) by :meth:`repro.config.EnvConfig.overlay`; the
run then builds its store through :class:`CheckpointPolicy`.

Because one process may run many differently-configured solvers, each
configuration gets its own store subdirectory keyed by a fingerprint
hash — a resumed experiment finds exactly its own checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.ckpt.io import sha256_bytes
from repro.ckpt.manifest import config_fingerprint
from repro.ckpt.store import CheckpointStore
from repro.obs.observer import NULL_OBSERVER, ObserverLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lbm.solver import LBMConfig


def fingerprint_key(config: "LBMConfig") -> str:
    """Short stable hash of a configuration fingerprint — the per-config
    store subdirectory name."""
    doc = json.dumps(config_fingerprint(config), sort_keys=True)
    return sha256_bytes(doc.encode())[:12]


@dataclass(frozen=True)
class CheckpointPolicy:
    """How (and whether) a run checkpoints itself."""

    root: Path
    every: int = 0
    resume: bool = False
    keep_last: int = 3
    keep_every: int = 0

    def store_for(
        self,
        config: "LBMConfig",
        *,
        observer: ObserverLike = NULL_OBSERVER,
    ) -> CheckpointStore:
        """The per-configuration store under this policy's root."""
        return CheckpointStore(
            self.root / fingerprint_key(config),
            keep_last=self.keep_last,
            keep_every=self.keep_every,
            observer=observer,
        )
