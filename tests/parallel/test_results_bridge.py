"""The parallel-results -> sequential-solver diagnostics bridge."""

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.ckpt import CheckpointStore
from repro.lbm.diagnostics import density_profile, velocity_profile
from repro.lbm.solver import MulticomponentLBM
from repro.parallel.driver import solver_from_results


def static_results(config, ranks, phases):
    spec = RunSpec(config=config, phases=phases, ranks=ranks, policy="no-remap")
    return run(spec).rank_results


class TestSolverFromResults:
    def test_diagnostics_match_sequential(self, two_component_config):
        seq = MulticomponentLBM(two_component_config)
        seq.run(30)
        results = static_results(two_component_config, 3, 30)
        bridged = solver_from_results(results, two_component_config)
        p_seq = velocity_profile(seq)
        p_par = velocity_profile(bridged)
        assert np.array_equal(p_seq.values, p_par.values)
        d_seq = density_profile(seq, "water")
        d_par = density_profile(bridged, "water")
        assert np.array_equal(d_seq.values, d_par.values)

    def test_moments_recomputed(self, two_component_config):
        results = static_results(two_component_config, 2, 10)
        bridged = solver_from_results(results, two_component_config)
        # rho must equal the zeroth moment of the assembled populations.
        assert np.allclose(bridged.rho[0], bridged.f[0].sum(axis=0))

    def test_shape_mismatch_rejected(self, two_component_config, single_component_config):
        results = static_results(two_component_config, 2, 5)
        with pytest.raises(ValueError, match="shape"):
            solver_from_results(results, single_component_config)

    def test_checkpointable(self, two_component_config, tmp_path):
        """Parallel output can be checkpointed through the bridge."""
        results = static_results(two_component_config, 2, 8)
        bridged = solver_from_results(results, two_component_config)
        store = CheckpointStore(tmp_path / "par")
        store.save_solver(bridged)
        fresh = MulticomponentLBM(two_component_config)
        store.restore_solver(fresh)
        assert np.array_equal(fresh.f, bridged.f)
        assert fresh.step_count == bridged.step_count
