"""The fused kernels' column blocks (``repro.lbm.backends.fused``,
module docstring item 5): the block width changes no bit, and the
solver and the ensemble get the L2-sized block.  The parallel driver's
side -- two ranks on either transport, and which ranks keep the wide
block -- is ``tests/parallel/test_driver_column_blocks.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lbm.backends import fused
from repro.lbm.ensemble import BatchedEnsemble, EnsembleSpec, MemberParams
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import MulticomponentLBM

from .test_backends import two_component_config
from .test_ensemble import base_config

#: The one-BLAS-call granularity, the L2-sized block and the GIL cap.
WIDTHS = (16, 4_096, 16_384)

#: Grids of 17 063 and 18 009 points: multiples of neither 16 nor
#: 4 096, and wide enough that every width above splits them.
SHAPES = {2: (151, 113), 3: (29, 27, 23)}


def block_at(monkeypatch, cache: int, gil: int | None = None) -> None:
    """Build every later fused backend with *cache* (and, for callers
    sharing an interpreter, *gil*) as its column cap."""
    monkeypatch.setattr(fused, "_CACHE_COLUMNS", cache)
    monkeypatch.setattr(fused, "_GIL_COLUMNS", cache if gil is None else gil)


def test_the_caps_are_the_measured_widths():
    assert (fused._CACHE_COLUMNS, fused._GIL_COLUMNS) == (4_096, 16_384)


@pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=["D2Q9", "D3Q19"])
def test_solver_bits_do_not_depend_on_the_block_width(monkeypatch, lattice):
    cfg = two_component_config(lattice, scenario="walls", shape=SHAPES[lattice.D])
    fields = []
    for width in WIDTHS:
        block_at(monkeypatch, width)
        solver = MulticomponentLBM(cfg)
        assert solver.backend.columns == width
        solver.run(4)
        fields.append(solver.f)
    assert all(np.array_equal(fields[0], f) for f in fields[1:])


def test_stacked_ensemble_bits_do_not_depend_on_the_block_width(monkeypatch):
    """Nine 45x45 members: 18 225 stacked columns per row."""
    amps = np.linspace(0.02, 0.12, 9).tolist()
    spec = EnsembleSpec(
        base=base_config(D2Q9, shape=(45, 45)),
        members=tuple(MemberParams(wall_amplitude=a) for a in amps),
    )
    fields = []
    for width in WIDTHS:
        block_at(monkeypatch, width)
        eng = BatchedEnsemble(spec)
        assert eng.backend.columns == width
        for _ in range(4):
            eng.step()
        fields.append(eng.f)
    assert all(np.array_equal(fields[0], f) for f in fields[1:])


def test_solver_and_ensemble_take_the_cache_block(monkeypatch):
    block_at(monkeypatch, 16, gil=32)
    cfg = base_config(D2Q9, shape=(16, 12))
    assert MulticomponentLBM(cfg).backend.columns == 16
    spec = EnsembleSpec(base=cfg, members=(MemberParams(), MemberParams(wall_amplitude=0.1)))
    assert BatchedEnsemble(spec).backend.columns == 16
