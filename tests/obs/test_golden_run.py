"""Golden-run regression test for the instrumented parallel driver.

One seeded 2-rank run (16x10 channel, 8 phases, filtered remapping with a
deterministic load-index function that makes rank 0 shed planes) pins:

- the **ordered per-rank event schema** of the emitted trace, and
- the **final global field hash** (populations rounded to 8 decimals —
  coarse enough that reference and fused agree bit-for-bit after
  rounding, fine enough that any physics or protocol change flips it).

If an intentional change alters either, regenerate the constants with
``python -m tests.obs.test_golden_run`` and review the diff like any
other golden update.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.obs import MemorySink, Observer

GOLDEN_PHASES = 8
GOLDEN_INTERVAL = 4

#: sha256 of ``np.round(f_global, 8).tobytes()`` — identical for both
#: backends (their differential tolerance is far below the rounding).
GOLDEN_FIELD_HASH = (
    "6d15ae0a19792be2592bd4f35d78e4bc46553a5b2f1de435b4e54b54e45c4319"
)

#: Ordered event types each rank must emit: 4 phases, then one remap
#: round (state snapshot, decision, one migration, state snapshot),
#: twice over, then the rank's run summary.
GOLDEN_RANK_SCHEMA = (
    ["phase"] * 4
    + ["remap_begin", "remap_decision", "migrate", "remap_end"]
    + ["phase"] * 4
    + ["remap_begin", "remap_decision", "migrate", "remap_end"]
    + ["run_end"]
)


def golden_config(backend: str) -> LBMConfig:
    return LBMConfig(
        geometry=ChannelGeometry(shape=(16, 10), wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        body_acceleration=(1e-6, 0.0),
        backend=backend,
    )


def golden_load_fn(rank: int, phase: int, points: int) -> float:
    """Deterministic load indices: rank 0 looks twice as slow, so the
    filtered policy migrates planes 0 -> 1 every round."""
    return 2.0 if rank == 0 else 1.0


def run_golden(backend: str):
    observer = Observer(sink=MemorySink())
    spec = RunSpec(
        config=golden_config(backend),
        phases=GOLDEN_PHASES,
        ranks=2,  # an even 8 + 8 planes
        policy="filtered",
        remap_config=RemappingConfig(
            interval=GOLDEN_INTERVAL, history=GOLDEN_INTERVAL
        ),
        load_time_fn=golden_load_fn,
        observer=observer,
    )
    return run(spec), observer.sink.events


def field_hash(f_global: np.ndarray) -> str:
    return hashlib.sha256(np.round(f_global, 8).tobytes()).hexdigest()


@pytest.mark.parametrize("backend", ["reference", "fused"])
class TestGoldenRun:
    def test_event_schema_pinned(self, backend):
        _, events = run_golden(backend)
        for rank in (0, 1):
            types = [e["type"] for e in events if e.get("rank") == rank]
            assert types == GOLDEN_RANK_SCHEMA, f"rank {rank} schema drifted"

    def test_final_field_hash_pinned(self, backend):
        result, _ = run_golden(backend)
        assert field_hash(result.f) == GOLDEN_FIELD_HASH

    def test_trace_is_well_formed(self, backend):
        """Cross-cutting invariants the schema alone doesn't pin: global
        metadata events, monotonic seq, phase timing fields present, and
        migration volumes consistent with the run results."""
        result, events = run_golden(backend)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert events[0]["type"] == "run_start"
        assert events[0]["backend"] == backend
        assert events[-1]["type"] == "metrics"

        phases = [e for e in events if e["type"] == "phase"]
        assert len(phases) == 2 * GOLDEN_PHASES
        for ev in phases:
            for key in ("t_collide", "t_halo_f", "t_stream_bounce",
                        "t_moments", "t_halo_rho", "t_total", "t_halo_wait",
                        "halo_f_bytes", "halo_rho_bytes"):
                assert key in ev
            assert ev["halo_f_bytes"] > 0
            assert ev["t_total"] > 0

        sent = sum(
            e["planes"] for e in events
            if e["type"] == "migrate" and e["action"] == "send"
        )
        assert sent == sum(r.planes_sent for r in result.rank_results) > 0

    def test_kernel_metrics_cover_hot_kernels(self, backend):
        _, events = run_golden(backend)
        metrics = events[-1]["metrics"]
        for kernel in ("stream", "bounce_back", "collide_bgk", "moments",
                       "forces_and_velocities"):
            snap = metrics[f"kernel.{backend}.{kernel}"]
            assert snap["count"] > 0
            assert snap["total"] > 0
            assert metrics[f"kernel.{backend}.{kernel}.points"]["value"] > 0


def _regenerate() -> None:  # pragma: no cover - maintenance helper
    result, events = run_golden("reference")
    print("GOLDEN_FIELD_HASH =", repr(field_hash(result.f)))
    print("rank 0 schema:",
          [e["type"] for e in events if e.get("rank") == 0])


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
