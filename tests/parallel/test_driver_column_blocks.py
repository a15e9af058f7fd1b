"""The parallel driver and the fused kernels' column blocks
(``repro.lbm.backends.fused``, module docstring item 5): on either
transport the block width changes no bit, process ranks take the
L2-sized block, and every backend of a thread rank -- which shares the
GIL with its peers -- keeps the wide one, also after a plane migration
rebuilds it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import RemappingConfig
from repro.lbm.solver import MulticomponentLBM
from repro.parallel.driver import ParallelLBM, assemble_global_f
from repro.parallel.launch import launch_spmd
from tests.lbm.test_column_blocks import SHAPES, WIDTHS, block_at
from tests.parallel.test_driver import slow_rank_load_fn, small_config
from tests.parallel.test_driver_bound_calls import _backends


@pytest.mark.parametrize("transport", ["threads", "processes"])
def test_two_rank_bits_do_not_depend_on_the_block_width(monkeypatch, transport):
    """Each rank's interior piece is 74 x 113 = 8 362 columns."""
    cfg = small_config(*SHAPES[2])
    seq = MulticomponentLBM(cfg)
    seq.run(4)

    def rank_main(comm):
        return ParallelLBM(comm, cfg, policy="no-remap").run(4)

    for width in WIDTHS:
        block_at(monkeypatch, width)  # forked ranks inherit it
        results = launch_spmd(2, rank_main, transport=transport, timeout=120.0)
        assert np.array_equal(assemble_global_f(results), seq.f), width


def _widths(drv: ParallelLBM) -> list[int]:
    return [backend.columns for backend in _backends(drv)]


def test_process_ranks_take_the_cache_block(monkeypatch):
    """Caps of 16 and 32 columns tell the two apart on 40-point strips."""
    block_at(monkeypatch, 16, gil=32)
    cfg = small_config(nx=24, ny=40)

    def rank_main(comm):
        return _widths(ParallelLBM(comm, cfg, policy="no-remap"))

    for widths in launch_spmd(2, rank_main, transport="processes", timeout=120.0):
        assert widths and set(widths) == {16}


def test_thread_ranks_keep_the_gil_block_through_migration(monkeypatch):
    block_at(monkeypatch, 16, gil=32)
    cfg = small_config(nx=24, ny=40)

    def rank_main(comm):
        drv = ParallelLBM(
            comm,
            cfg,
            policy="filtered",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=slow_rank_load_fn(1),
        )
        before = _widths(drv)
        drv.run(30)
        return before, _widths(drv), drv.planes_sent + drv.planes_received

    out = launch_spmd(3, rank_main, transport="threads")
    assert sum(moved for _, _, moved in out) > 0, "nothing migrated"
    for before, after, _ in out:
        assert set(before) == set(after) == {32}
