"""``repro.ckpt`` — checkpoint/restart with deterministic resume.

Versioned, checksummed, atomically-written snapshots of full solver
state as ``.npz`` shards plus a JSON manifest; a retention policy; a
fault-injection layer for recovery testing; and a CLI
(``python -m repro.ckpt inspect|verify|prune``).

Guarantee (pinned by tests/ckpt and tests/parallel): a run checkpointed
at step *k* and resumed on the same backend continues **bit-exactly** —
``run(n)`` equals ``run(k); save; load; run(n - k)`` to the last ulp,
sequential or parallel, across dynamic plane remapping.

See docs/CHECKPOINTING.md for the on-disk format and the recovery
semantics.
"""

from repro.ckpt.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_file,
    truncate_file,
)
from repro.ckpt.io import (
    atomic_open,
    atomic_savez,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    sha256_bytes,
    sha256_file,
)
from repro.ckpt.manifest import (
    CKPT_FORMAT,
    CheckpointError,
    CheckpointRejected,
    CorruptCheckpointError,
    IncompatibleCheckpointError,
    Manifest,
    ShardInfo,
    check_fingerprint,
    config_fingerprint,
)
from repro.ckpt.policy import CheckpointPolicy, fingerprint_key
from repro.ckpt.store import CheckpointStore, GenerationInfo

__all__ = [
    "CKPT_FORMAT",
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointRejected",
    "CheckpointStore",
    "CorruptCheckpointError",
    "FaultPlan",
    "FaultSpec",
    "GenerationInfo",
    "IncompatibleCheckpointError",
    "InjectedFault",
    "Manifest",
    "ShardInfo",
    "atomic_open",
    "atomic_savez",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "check_fingerprint",
    "config_fingerprint",
    "corrupt_file",
    "fingerprint_key",
    "sha256_bytes",
    "sha256_file",
    "truncate_file",
]
