"""Checkpoint manifest: the versioned, checksummed description of one
checkpoint generation.

A generation is a directory ``step-<step:08d>/`` holding one ``.npz``
shard per writer plus a ``manifest.json``.  The manifest is written
*last*, atomically — its presence is the commit point; a generation
without a parseable manifest is an aborted write and is ignored by
:meth:`repro.ckpt.store.CheckpointStore.latest_good`.

Shards are x-plane ranges of the global domain.  The manifest records
each shard's ``plane_start``/``plane_count`` explicitly, so a checkpoint
written by a parallel run *after dynamic remapping has moved planes
between ranks* restores correctly into any target decomposition — the
ownership map travels with the data instead of being implied by rank
order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lbm.solver import LBMConfig

#: Bumped whenever the on-disk layout changes incompatibly.
CKPT_FORMAT = 1

#: Name of the per-generation manifest file (the commit point).
MANIFEST_NAME = "manifest.json"


class CheckpointError(Exception):
    """Base class for checkpoint failures."""


class CorruptCheckpointError(CheckpointError):
    """A shard or manifest failed verification (checksum, size, schema)."""


class IncompatibleCheckpointError(CheckpointError):
    """The checkpoint's configuration fingerprint does not match the
    solver attempting to restore it."""


class CheckpointRejected(CheckpointError):
    """The live state failed its health check; nothing was persisted.

    Raised *before* any shard write, so a rejected checkpoint never
    shadows the last good generation with corrupt physics.
    """


@dataclass(frozen=True)
class ShardInfo:
    """One shard's entry in the manifest.

    ``plane_start``/``plane_count`` delimit the shard's x band;
    ``col_start``/``col_count`` its band along the first cross-section
    axis.  ``col_count=None`` means the full cross extent — the 1-D slab
    layout, and what every pre-2-D manifest implicitly carried, so old
    generations parse unchanged.
    """

    filename: str
    rank: int
    plane_start: int
    plane_count: int
    sha256: str
    nbytes: int
    col_start: int = 0
    col_count: int | None = None

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ShardInfo":
        col_count = doc.get("col_count")
        return cls(
            filename=str(doc["filename"]),
            rank=int(doc["rank"]),
            plane_start=int(doc["plane_start"]),
            plane_count=int(doc["plane_count"]),
            sha256=str(doc["sha256"]),
            nbytes=int(doc["nbytes"]),
            col_start=int(doc.get("col_start", 0)),
            col_count=None if col_count is None else int(col_count),
        )


@dataclass(frozen=True)
class Manifest:
    """The parsed ``manifest.json`` of one generation."""

    format: int
    step: int
    fingerprint: dict[str, Any]
    shards: tuple[ShardInfo, ...]
    rng_state: dict[str, Any] | None = None

    @property
    def total_planes(self) -> int:
        return sum(s.plane_count for s in self.shards)

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self.shards)

    def shards_in_x_order(self) -> tuple[ShardInfo, ...]:
        return tuple(
            sorted(self.shards, key=lambda s: (s.plane_start, s.col_start))
        )

    def is_two_dimensional(self) -> bool:
        """Whether any shard owns less than the full cross extent."""
        return any(s.col_count is not None for s in self.shards)

    def validate_coverage(self) -> None:
        """Shard rectangles must tile the ``nx × ny`` domain exactly once,
        in any rank order: the x bands tile ``[0, nx)`` and, within each
        x band, the column bands tile ``[0, ny)``."""
        shape = self.fingerprint.get("shape")
        ny = int(shape[1]) if shape is not None and len(shape) > 1 else 1
        bands: dict[tuple[int, int], list[ShardInfo]] = {}
        for shard in self.shards:
            if shard.plane_count < 1:
                raise CorruptCheckpointError(
                    f"shard {shard.filename} owns {shard.plane_count} planes"
                )
            bands.setdefault(
                (shard.plane_start, shard.plane_count), []
            ).append(shard)
        expected = 0
        for (start, count), members in sorted(bands.items()):
            if start != expected:
                raise CorruptCheckpointError(
                    f"shard {members[0].filename} starts at plane "
                    f"{start}, expected {expected} "
                    f"(gap or overlap in the ownership map)"
                )
            expected += count
            col_expected = 0
            for shard in sorted(members, key=lambda s: s.col_start):
                cols = ny if shard.col_count is None else shard.col_count
                if shard.col_start != col_expected or cols < 1:
                    raise CorruptCheckpointError(
                        f"shard {shard.filename} starts at column "
                        f"{shard.col_start} with {cols} columns, expected "
                        f"column {col_expected} (gap or overlap in the "
                        f"ownership map)"
                    )
                col_expected += cols
            if col_expected != ny:
                raise CorruptCheckpointError(
                    f"x band at plane {start} covers {col_expected} columns "
                    f"but the domain has {ny}"
                )
        nx = int(shape[0]) if shape is not None else expected
        if expected != nx:
            raise CorruptCheckpointError(
                f"shards cover {expected} planes but the domain has {nx}"
            )

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "format": self.format,
            "step": self.step,
            "fingerprint": self.fingerprint,
            "shards": [s.to_json() for s in self.shards],
        }
        if self.rng_state is not None:
            doc["rng_state"] = self.rng_state
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Manifest":
        try:
            fmt = int(doc["format"])
            if fmt != CKPT_FORMAT:
                raise CorruptCheckpointError(
                    f"unsupported checkpoint format {fmt} "
                    f"(this build reads format {CKPT_FORMAT})"
                )
            return cls(
                format=fmt,
                step=int(doc["step"]),
                fingerprint=dict(doc["fingerprint"]),
                shards=tuple(
                    ShardInfo.from_json(s) for s in doc["shards"]
                ),
                rng_state=(
                    dict(doc["rng_state"])
                    if doc.get("rng_state") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptCheckpointError(
                f"manifest does not match the schema: {exc!r}"
            ) from exc


def config_fingerprint(config: "LBMConfig") -> dict[str, Any]:
    """Everything that must match for a restore to continue the *same*
    physics.  The kernel backend is deliberately excluded: it selects an
    implementation, not a model (cross-backend restores are legal but
    only same-backend resumes are bit-exact; see docs/CHECKPOINTING.md).
    """
    geo = config.geometry
    return {
        "format": CKPT_FORMAT,
        "lattice": config.lattice.name,
        "shape": [int(s) for s in geo.shape],
        "wall_axes": [int(a) for a in geo.wall_axes],
        "wall_thickness": int(geo.wall_thickness),
        "components": [
            {
                "name": c.name,
                "tau": float(c.tau),
                "mass": float(c.mass),
                "rho_init": float(c.rho_init),
            }
            for c in config.components
        ],
        "g_matrix": np.asarray(config.g_matrix, dtype=np.float64)
        .tolist(),
        "wall_force": (
            None
            if config.wall_force is None
            else {
                "amplitude": float(config.wall_force.amplitude),
                "decay_length": float(config.wall_force.decay_length),
                "component": config.wall_force.component,
            }
        ),
        "body_acceleration": (
            None
            if config.body_acceleration is None
            else [float(a) for a in config.body_acceleration]
        ),
        # Constant, as is "psi": existing checkpoints carry both keys.
        "collision": "bgk",
        "adhesion": (
            None
            if config.adhesion is None
            else [float(a) for a in config.adhesion]
        ),
        "scenario": (
            None if config.scenario is None else config.scenario.doc()
        ),
        "psi": "psi_identity",
    }


def check_fingerprint(
    manifest: Manifest, config: "LBMConfig"
) -> None:
    """Raise :class:`IncompatibleCheckpointError` unless *manifest* was
    written by a configuration equivalent to *config*."""
    expected = config_fingerprint(config)
    if manifest.fingerprint != expected:
        diffs = sorted(
            key
            for key in set(manifest.fingerprint) | set(expected)
            if manifest.fingerprint.get(key) != expected.get(key)
        )
        raise IncompatibleCheckpointError(
            f"checkpoint incompatible with this configuration "
            f"(differing fields: {diffs})\n"
            f"  checkpoint: {manifest.fingerprint}\n"
            f"  solver:     {expected}"
        )
