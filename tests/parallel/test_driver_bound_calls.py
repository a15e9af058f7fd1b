"""The parallel driver and the fused kernels' bound call lists: every
piece holds stable views, so a steady-state phase binds nothing, and
the paths that rebind ``f`` -- plane migration, checkpoint restore on
either transport -- continue bit-identically to the sequential run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.ckpt import CheckpointStore
from repro.core.policies import RemappingConfig
from repro.lbm.solver import MulticomponentLBM
from repro.parallel.driver import ParallelLBM, assemble_global_f
from repro.parallel.launch import launch_spmd
from tests.parallel.test_checkpoint_parallel import REMAP, config
from tests.parallel.test_driver import slow_rank_load_fn, small_config

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


def _backends(drv: ParallelLBM) -> list:
    """The rank's backend and every piece's (the blocking piece shares
    the rank's)."""
    pieces = drv._edge_pieces + [p for p in [drv._mid_piece] if p is not None]
    return [drv.backend] + [piece[0] for piece in pieces]


@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "blocking"])
def test_steady_state_phase_binds_nothing_on_any_piece(overlap):
    def rank_main(comm):
        drv = ParallelLBM(comm, config(), policy="no-remap", halo_overlap=overlap)
        drv.run(1)
        first = [b.binds for b in _backends(drv)]
        drv.run(4)
        return first, [b.binds for b in _backends(drv)]

    for first, later in launch_spmd(3, rank_main, transport="threads"):
        assert first == later
        assert all(first), "a piece backend never bound its calls"


def test_plane_migration_continues_bit_identically():
    """Filtered remapping on threads, overlapped schedule: every
    migration rebinds ``f`` and rebuilds the pieces' views."""
    cfg = small_config()
    seq = MulticomponentLBM(cfg)
    seq.run(40)
    result = run(
        RunSpec(
            config=cfg,
            phases=40,
            ranks=4,
            transport="threads",
            policy="filtered",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=slow_rank_load_fn(1),
        )
    )
    assert sum(r.planes_sent for r in result.rank_results) > 0, "nothing migrated"
    assert np.array_equal(result.f, seq.f)


@pytest.mark.parametrize("transport", ["threads", "processes"])
def test_checkpoint_restore_continues_bit_identically(tmp_path, transport):
    """Step past a checkpoint (every list bound), restore it on the same
    drivers, step on: the bits of the sequential run."""
    cfg = config()
    seq = MulticomponentLBM(cfg)
    seq.run(16)
    root = tmp_path / "ckpt"

    def rank_main(comm):
        store = CheckpointStore(root)
        drv = ParallelLBM(comm, cfg, checkpoint_every=8, checkpoint_store=store, **REMAP)
        drv.run(12)
        assert drv.restore_checkpoint().step == 8
        return drv.run(8)

    results = launch_spmd(3, rank_main, transport=transport, timeout=120.0)
    assert [r.phases for r in results] == [16] * 3
    assert np.array_equal(assemble_global_f(results), seq.f)
