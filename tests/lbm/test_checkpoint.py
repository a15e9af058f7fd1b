"""A sequential solver saved and restored through ``CheckpointStore``."""

import numpy as np
import pytest

from repro.ckpt import CheckpointStore, IncompatibleCheckpointError
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM


@pytest.fixture
def solver(two_component_config):
    s = MulticomponentLBM(two_component_config)
    s.run(25)
    return s


@pytest.fixture
def store(solver, tmp_path):
    """A store holding one generation: *solver* at step 25."""
    store = CheckpointStore(tmp_path / "ckpt")
    store.save_solver(solver)
    return store


class TestRoundTrip:
    def test_state_restored_bitwise(self, solver, store, two_component_config):
        fresh = MulticomponentLBM(two_component_config)
        store.restore_solver(fresh)
        assert np.array_equal(solver.f, fresh.f)
        assert np.array_equal(solver.rho, fresh.rho)

    def test_continued_run_identical(self, solver, store, two_component_config):
        """Run A->B directly vs checkpoint at A, restore, run to B."""
        solver.run(15)
        restored = MulticomponentLBM(two_component_config)
        store.restore_solver(restored)
        restored.run(15)
        assert np.array_equal(solver.f, restored.f)

    def test_step_count_restored(self, store, two_component_config):
        fresh = MulticomponentLBM(two_component_config)
        manifest = store.restore_solver(fresh)
        assert fresh.step_count == manifest.step == 25


class TestCompatibility:
    def test_wrong_grid_rejected(self, solver, store):
        other = MulticomponentLBM(
            LBMConfig(
                geometry=ChannelGeometry(shape=(14, 18), wall_axes=(1,)),
                components=solver.config.components,
                g_matrix=solver.config.g_matrix,
                lattice=D2Q9,
            )
        )
        with pytest.raises(IncompatibleCheckpointError, match="shape"):
            store.restore_solver(other)

    def test_wrong_components_rejected(self, store, channel_2d):
        other = MulticomponentLBM(
            LBMConfig(
                geometry=channel_2d,
                components=(ComponentSpec("water", tau=1.0),),
                g_matrix=np.zeros((1, 1)),
                lattice=D2Q9,
            )
        )
        with pytest.raises(IncompatibleCheckpointError, match="components"):
            store.restore_solver(other)

    def test_wrong_tau_rejected(self, solver, store, channel_2d):
        comps = (
            ComponentSpec("water", tau=0.9, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        )
        other = MulticomponentLBM(
            LBMConfig(
                geometry=channel_2d,
                components=comps,
                g_matrix=solver.config.g_matrix,
                lattice=D2Q9,
                wall_force=solver.config.wall_force,
                body_acceleration=solver.config.body_acceleration,
            )
        )
        with pytest.raises(IncompatibleCheckpointError, match="components"):
            store.restore_solver(other)
