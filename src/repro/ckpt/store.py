"""The checkpoint store: generation directories, verification, retention.

Layout under one store root::

    root/
      step-00000040/
        shard-r0000.npz     # one rectangle of the global state (+ extras)
        shard-r0001.npz
        manifest.json       # written last, atomically: the commit point
      step-00000080/
        ...

Writing is two-phase: every shard lands atomically (tempfile + fsync +
rename via :mod:`repro.ckpt.io`), and the manifest — which carries each
shard's SHA-256 — is committed only after all shards exist.  Readers
ignore any generation without a parseable manifest, and
:meth:`CheckpointStore.latest_good` additionally re-hashes every shard,
so a truncated, corrupted or half-written generation is skipped (and
counted) rather than restored.

Instrumentation (through :mod:`repro.obs`): ``ckpt.saves`` /
``ckpt.restores`` / ``ckpt.bytes_written`` / ``ckpt.corrupt_discarded``
counters, ``span.ckpt.save`` / ``span.ckpt.restore`` duration
histograms, and ``ckpt_commit`` / ``ckpt_discard`` / ``ckpt_prune``
trace events.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.ckpt.io import atomic_savez, atomic_write_json, sha256_file
from repro.ckpt.manifest import (
    CKPT_FORMAT,
    MANIFEST_NAME,
    CheckpointRejected,
    CorruptCheckpointError,
    Manifest,
    ShardInfo,
    check_fingerprint,
    config_fingerprint,
    tile,
)
from repro.obs.observer import NULL_OBSERVER, ObserverLike, resolve_observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ckpt.faults import FaultPlan
    from repro.lbm.solver import MulticomponentLBM

#: Generation directory name pattern.
GEN_PREFIX = "step-"
_GEN_RE = re.compile(rf"^{GEN_PREFIX}(\d{{8}})$")


@dataclass(frozen=True)
class GenerationInfo:
    """One generation directory as found on disk."""

    step: int
    path: Path
    committed: bool
    manifest: Manifest | None
    problem: str | None = None


class CheckpointStore:
    """Versioned checkpoint generations under one root directory.

    Parameters
    ----------
    root:
        Store directory (created on first write).
    keep_last:
        Retention: number of newest committed generations kept by
        :meth:`prune` (0 disables pruning entirely).
    keep_every:
        Additionally keep every generation whose step is a multiple of
        this (0 disables) — cheap long-horizon history on top of the
        rolling window.
    observer:
        Observability handle (or the shared ``NULL_OBSERVER``).
    faults:
        Optional :class:`repro.ckpt.faults.FaultPlan` consulted at the
        write-path fault sites (tests only).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        keep_last: int = 3,
        keep_every: int = 0,
        observer: ObserverLike = NULL_OBSERVER,
        faults: "FaultPlan | None" = None,
    ):
        if keep_last < 0 or keep_every < 0:
            raise ValueError("keep_last and keep_every must be >= 0")
        self.root = Path(root)
        self.keep_last = keep_last
        self.keep_every = keep_every
        self.observer = resolve_observer(observer)
        self.faults = faults

    # ------------------------------------------------------------- layout
    def generation_dir(self, step: int) -> Path:
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        return self.root / f"{GEN_PREFIX}{step:08d}"

    def manifest_path(self, step: int) -> Path:
        return self.generation_dir(step) / MANIFEST_NAME

    def shard_filename(self, rank: int) -> str:
        return f"shard-r{rank:04d}.npz"

    # ------------------------------------------------------------ reading
    def generations(self) -> list[GenerationInfo]:
        """Every generation directory under the root, oldest first,
        committed or not (aborted writes show ``committed=False``)."""
        if not self.root.is_dir():
            return []
        infos: list[GenerationInfo] = []
        for child in sorted(self.root.iterdir()):
            match = _GEN_RE.match(child.name)
            if match is None or not child.is_dir():
                continue
            step = int(match.group(1))
            manifest: Manifest | None = None
            problem: str | None = None
            try:
                manifest = self.read_manifest(step)
            except FileNotFoundError:
                problem = "no manifest (write never committed)"
            except CorruptCheckpointError as exc:
                problem = str(exc)
            infos.append(
                GenerationInfo(
                    step=step,
                    path=child,
                    committed=manifest is not None,
                    manifest=manifest,
                    problem=problem,
                )
            )
        return infos

    def read_manifest(self, step: int) -> Manifest:
        """Parse one generation's manifest (no shard verification)."""
        path = self.manifest_path(step)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as exc:
            raise CorruptCheckpointError(
                f"{path}: manifest unreadable: {exc}"
            ) from exc
        manifest = Manifest.from_json(doc)
        if manifest.step != step:
            raise CorruptCheckpointError(
                f"{path}: manifest claims step {manifest.step}, "
                f"directory says {step}"
            )
        return manifest

    def verify_generation(self, step: int) -> list[str]:
        """Full integrity check of one generation; returns the list of
        problems (empty = good).  Re-hashes every shard."""
        try:
            manifest = self.read_manifest(step)
        except FileNotFoundError:
            return [f"step {step}: no manifest (write never committed)"]
        except CorruptCheckpointError as exc:
            return [str(exc)]
        problems: list[str] = []
        try:
            manifest.validate_coverage()
        except CorruptCheckpointError as exc:
            problems.append(str(exc))
        gen = self.generation_dir(step)
        for shard in manifest.shards:
            path = gen / shard.filename
            if not path.is_file():
                problems.append(f"{path.name}: missing")
                continue
            size = path.stat().st_size
            if size != shard.nbytes:
                problems.append(
                    f"{path.name}: {size} bytes on disk, manifest says "
                    f"{shard.nbytes} (truncated?)"
                )
                continue
            digest = sha256_file(path)
            if digest != shard.sha256:
                problems.append(
                    f"{path.name}: checksum mismatch "
                    f"(disk {digest[:12]}…, manifest {shard.sha256[:12]}…)"
                )
        return problems

    def latest_good(self, *, verify: bool = True) -> Manifest | None:
        """Newest generation that passes verification, or ``None``.

        Bad generations encountered on the way are skipped, counted
        under ``ckpt.corrupt_discarded`` and reported as ``ckpt_discard``
        events — this is the recovery path after a crash mid-write or a
        corrupted shard.
        """
        for info in reversed(self.generations()):
            problems = (
                self.verify_generation(info.step)
                if verify
                else ([] if info.committed else [info.problem or "uncommitted"])
            )
            if not problems:
                return info.manifest or self.read_manifest(info.step)
            if self.observer.enabled:
                self.observer.counter("ckpt.corrupt_discarded").add(1)
                self.observer.emit(
                    "ckpt_discard", step=info.step, problems=problems
                )
        return None

    def load_shard_arrays(
        self, manifest: Manifest, shard: ShardInfo, *, verify: bool = True
    ) -> dict[str, np.ndarray]:
        """Load one shard's arrays, checksum-verified by default."""
        path = self.generation_dir(manifest.step) / shard.filename
        if verify:
            if not path.is_file():
                raise CorruptCheckpointError(f"{path}: missing shard")
            if path.stat().st_size != shard.nbytes or (
                sha256_file(path) != shard.sha256
            ):
                raise CorruptCheckpointError(
                    f"{path}: shard failed verification"
                )
        with np.load(path) as data:
            return {key: np.asarray(data[key]) for key in data.files}

    def load_global_f(
        self, manifest: Manifest, *, verify: bool = True
    ) -> np.ndarray:
        """Reassemble the global population array ``(C, Q, nx, *cross)``
        from shards of any count and layout, read once their ownership
        map is known to tile the domain."""
        f = tile(
            manifest.fingerprint["shape"],
            [shard.rectangle for shard in manifest.shards],
            (self.load_shard_arrays(manifest, s, verify=verify)["f"] for s in manifest.shards),
            error=CorruptCheckpointError,
        )
        assert f is not None  # blocks were given
        return f

    def load_rectangle(
        self, manifest: Manifest, rows: int, cols: int, rank: int,
        rectangle: tuple[int, int, int, int],
    ) -> tuple[dict[str, np.ndarray], int, int]:
        """What *rank* of a ``rows × cols`` rank grid adopts on restore,
        and the global plane and column it starts at: its own shard in
        row-major order (``f``, remap counters and histories) when the
        shards form a ``rows × cols`` grid, else ``{"f": ...}`` cut to
        *rectangle* ``(plane_start, plane_count, col_start, col_count)``."""
        shards = manifest.shards_in_x_order()
        rects = [shard.rectangle for shard in shards]
        # Each run of `cols` shards is one x band, and every band repeats
        # the first band's columns.
        if len(rects) == rows * cols and all(
            rect[:2] == rects[i - i % cols][:2]
            and rect[2:] == rects[i % cols][2:]
            for i, rect in enumerate(rects)
        ):
            mine = shards[rank]
            arrays = self.load_shard_arrays(manifest, mine)
            return arrays, mine.plane_start, mine.col_start
        ps, pc, cs, cc = rectangle
        f = self.load_global_f(manifest)
        return {"f": f[:, :, ps : ps + pc, cs : cs + cc]}, ps, cs

    # ------------------------------------------------------------ writing
    def write_shard(
        self,
        step: int,
        rank: int,
        arrays: dict[str, np.ndarray],
        *,
        plane_start: int,
        plane_count: int,
        col_start: int = 0,
        col_count: int | None = None,
    ) -> ShardInfo:
        """Atomically write one shard ``.npz`` and return its manifest
        entry (checksummed).  ``col_start``/``col_count`` record a 2-D
        ownership rectangle; the defaults mean the full cross extent
        (the 1-D slab layout).  Safe to call concurrently from rank
        threads — filenames are rank-disjoint."""
        if "f" not in arrays:
            raise ValueError("a shard must carry the 'f' population array")
        gen = self.generation_dir(step)
        filename = self.shard_filename(rank)
        path = gen / filename
        nbytes = atomic_savez(path, **arrays)
        if self.faults is not None:
            self.faults.fire("shard_written", rank=rank, at=step)
        if self.observer.enabled:
            self.observer.counter("ckpt.bytes_written").add(nbytes)
        return ShardInfo(
            filename=filename,
            rank=rank,
            plane_start=plane_start,
            plane_count=plane_count,
            sha256=sha256_file(path),
            nbytes=nbytes,
            col_start=col_start,
            col_count=col_count,
        )

    def commit(
        self,
        step: int,
        fingerprint: dict[str, Any],
        shards: Iterable[ShardInfo],
        *,
        rng_state: dict[str, Any] | None = None,
    ) -> Manifest:
        """Write the manifest (atomically — the commit point), then apply
        the retention policy.  Returns the committed manifest."""
        manifest = Manifest(
            format=CKPT_FORMAT,
            step=step,
            fingerprint=fingerprint,
            shards=tuple(sorted(shards, key=lambda s: s.rank)),
            rng_state=rng_state,
        )
        manifest.validate_coverage()
        if self.faults is not None:
            self.faults.fire("pre_commit", rank=0, at=step)
        atomic_write_json(self.manifest_path(step), manifest.to_json())
        if self.observer.enabled:
            self.observer.counter("ckpt.saves").add(1)
            self.observer.emit(
                "ckpt_commit",
                step=step,
                shards=len(manifest.shards),
                bytes=manifest.total_bytes,
            )
        self.prune()
        return manifest

    # ---------------------------------------------------------- retention
    def prune(
        self, keep_last: int | None = None, keep_every: int | None = None
    ) -> list[int]:
        """Apply the retention policy; returns the steps removed.

        Keeps the newest *keep_last* committed generations plus any
        whose step is a multiple of *keep_every*; removes everything
        else, including aborted (uncommitted) generations older than the
        newest committed one.  ``keep_last=0`` disables pruning.
        """
        keep_last = self.keep_last if keep_last is None else keep_last
        keep_every = self.keep_every if keep_every is None else keep_every
        if keep_last == 0:
            return []
        infos = self.generations()
        committed = [i for i in infos if i.committed]
        if not committed:
            return []
        protected = {i.step for i in committed[-keep_last:]}
        if keep_every:
            protected |= {
                i.step for i in committed if i.step % keep_every == 0
            }
        newest_committed = committed[-1].step
        removed: list[int] = []
        for info in infos:
            if info.step in protected:
                continue
            if not info.committed and info.step >= newest_committed:
                continue  # possibly a write in progress
            shutil.rmtree(info.path, ignore_errors=True)
            removed.append(info.step)
        if removed and self.observer.enabled:
            self.observer.emit("ckpt_prune", removed=removed)
        return removed

    # ------------------------------------------- sequential-solver bridge
    def save_solver(
        self,
        solver: "MulticomponentLBM",
        *,
        rng: "np.random.Generator | None" = None,
    ) -> Manifest:
        """Checkpoint a sequential solver as a single full-domain shard.

        The state is health-checked first; corrupt physics raises
        :class:`CheckpointRejected` and nothing is written.
        """
        try:
            solver.check_health()
        except FloatingPointError as exc:
            raise CheckpointRejected(
                f"refusing to persist unhealthy state at step "
                f"{solver.step_count}: {exc}"
            ) from exc
        step = solver.step_count
        nx = solver.config.geometry.shape[0]
        rng_state = None
        if rng is not None:
            from repro.util.rng import generator_state

            rng_state = generator_state(rng)
        with self.observer.span("ckpt.save", step=step):
            shard = self.write_shard(
                step,
                0,
                {"f": solver.f, "step": np.int64(step)},
                plane_start=0,
                plane_count=nx,
            )
            return self.commit(
                step,
                config_fingerprint(solver.config),
                [shard],
                rng_state=rng_state,
            )

    def restore_solver(
        self,
        solver: "MulticomponentLBM",
        *,
        manifest: Manifest | None = None,
        verify: bool = True,
    ) -> Manifest | None:
        """Restore a sequential solver from *manifest* (default: the
        latest good generation).  Returns the manifest used, or ``None``
        when the store holds no restorable generation."""
        if manifest is None:
            manifest = self.latest_good(verify=verify)
            if manifest is None:
                return None
        check_fingerprint(manifest, solver.config)
        with self.observer.span("ckpt.restore", step=manifest.step):
            f_global = self.load_global_f(manifest, verify=verify)
            solver.restore_state(f_global, manifest.step)
        if self.observer.enabled:
            self.observer.counter("ckpt.restores").add(1)
        return manifest
