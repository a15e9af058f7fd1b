"""The paper's water/air channel, stated once (repro.experiments.channel)."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.experiments
from repro.api import run_batch
from repro.experiments.channel import (
    DEFAULT,
    FAST,
    PAPER,
    channel_config,
    slip_pair,
)
from repro.lbm.loop import NumericalInstability
from repro.lbm.lattice import D2Q9, D3Q19


class TestChannelConfig:
    def test_default_is_3d(self):
        cfg = slip_pair(*DEFAULT)[0].config
        assert cfg.lattice is D3Q19
        assert cfg.geometry.ndim == 3

    def test_fast_is_2d(self):
        cfg = slip_pair(*FAST)[0].config
        assert cfg.lattice is D2Q9

    def test_paper_scale_grid(self):
        shape, phases, amplitude = PAPER
        assert shape == (400, 200, 20)
        assert phases == 20000
        assert amplitude == 0.2

    def test_wall_force_toggle(self):
        shape, phases, amplitude = FAST
        forced, control = slip_pair(shape, phases, amplitude)
        assert forced.phases == control.phases == phases
        assert forced.config.scenario.amplitude == amplitude
        assert control.config.scenario is None
        assert control.config.wall_force is None

    def test_components_are_water_air(self):
        cfg = channel_config(FAST[0])
        assert [c.name for c in cfg.components] == ["water", "air"]
        assert cfg.components[1].rho_init < cfg.components[0].rho_init

    def test_coupling_symmetric_repulsive(self):
        g = channel_config(FAST[0]).g_matrix
        assert g[0, 1] == g[1, 0] > 0
        assert g[0, 0] == g[1, 1] == 0

    def test_body_acceleration_along_x(self):
        accel = channel_config(DEFAULT[0]).body_acceleration
        assert accel[0] > 0
        assert all(a == 0 for a in accel[1:])


class TestRunChecked:
    def test_divergence_raises(self):
        # A wall force far past the paper's 0.2 blows the state up; the
        # run's own end-of-run health check must catch it.
        with np.errstate(all="ignore"), pytest.raises(NumericalInstability):
            run_batch(slip_pair((16, 42), 400, amplitude=3.0))


def test_no_experiment_builds_a_solver():
    """Every figure runs through repro.api: no module under
    repro.experiments calls MulticomponentLBM(...) itself."""
    offenders = []
    for path in sorted(Path(repro.experiments.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name == "MulticomponentLBM":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
