"""What a result object hands back: a one-line ``repr`` that never
formats an array, and a sequential solver holding its final state that
is built with a single moments + forces pass.

The reference for the rebuilt solver is the historical two-step
spelling, ``MulticomponentLBM(config)`` + ``restore_state(f, step)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EnsembleRunResult, RunResult, RunSpec, run, run_batch
from repro.lbm.ensemble import EnsembleSpec, run_ensemble
from repro.lbm.solver import MulticomponentLBM

from tests.api.test_run_batch import sweep_specs

PHASES = 5


def parallel_spec(config) -> RunSpec:
    return RunSpec(
        config=config,
        phases=PHASES,
        ranks=2,
        transport="threads",
        policy="no-remap",
    )


@pytest.fixture(params=["d2q9", "d3q19"])
def config(request, two_component_config, two_component_config_3d):
    return {
        "d2q9": two_component_config,
        "d3q19": two_component_config_3d,
    }[request.param]


@pytest.fixture
def moment_passes(monkeypatch):
    """Counts ``update_moments_and_forces`` calls from here on."""
    calls = []
    original = MulticomponentLBM.update_moments_and_forces

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(
        MulticomponentLBM, "update_moments_and_forces", counting
    )
    return calls


def assert_same_state(rebuilt: MulticomponentLBM, config, f, step) -> None:
    reference = MulticomponentLBM(config)
    reference.restore_state(f, step)
    assert rebuilt.step_count == reference.step_count == step
    for name in ("f", "rho", "mom", "force", "u_eq"):
        assert np.array_equal(getattr(rebuilt, name), getattr(reference, name)), name
    assert np.array_equal(rebuilt.velocity(), reference.velocity())


class TestRebuiltSolver:
    def test_constructor_adopts_a_sequential_final_state(
        self, config, moment_passes
    ):
        result = run(RunSpec(config=config, phases=PHASES))
        # The result kept no solver: it builds one, once, from `f`.
        del moment_passes[:]
        solver = result.solver()
        assert len(moment_passes) == 1
        assert result.solver() is solver and solver.step_count == PHASES
        assert_same_state(solver, config, result.f, PHASES)
        del moment_passes[:]
        rebuilt = MulticomponentLBM(config, state=(result.f, PHASES))
        assert len(moment_passes) == 1
        assert rebuilt.f is not result.f  # the solver owns its populations
        assert_same_state(rebuilt, config, result.f, PHASES)

    def test_batched_member_result(self, config, moment_passes):
        specs = sweep_specs(config, (0.03, 0.07), phases=PHASES)
        for result, spec in zip(run_batch(specs), specs):
            assert isinstance(result, EnsembleRunResult)
            del moment_passes[:]
            rebuilt = result.solver()
            assert len(moment_passes) == 1
            assert result.solver() is rebuilt  # cached, not rebuilt again
            assert_same_state(rebuilt, spec.config, result.f, PHASES)

    def test_ensemble_member(self, config, moment_passes):
        spec = EnsembleSpec.wall_force_sweep(config, (0.03, 0.07))
        for member in run_ensemble(spec, PHASES).members:
            del moment_passes[:]
            rebuilt = member.solver()
            assert len(moment_passes) == 1
            assert_same_state(rebuilt, member.config, member.f, PHASES)

    def test_parallel_result(self, config, moment_passes):
        result = run(parallel_spec(config))
        del moment_passes[:]
        rebuilt = result.solver()
        assert len(moment_passes) == 1
        assert_same_state(rebuilt, config, result.f, PHASES)

    def test_state_is_validated_like_restore_state(self, two_component_config):
        solver = MulticomponentLBM(two_component_config)
        with pytest.raises(ValueError, match="shape"):
            MulticomponentLBM(two_component_config, state=(solver.f[:1], 0))
        with pytest.raises(ValueError, match="step"):
            MulticomponentLBM(two_component_config, state=(solver.f, -1))


class TestSummaryRepr:
    def results(self, config) -> list[RunResult]:
        sequential = run(RunSpec(config=config, phases=PHASES))
        batched = run_batch(sweep_specs(config, (0.03, 0.07), phases=PHASES))
        return [sequential, *batched, run(parallel_spec(config))]

    def test_one_short_line_for_every_kind_of_result(self, config):
        results = self.results(config)
        kinds = {(type(r).__name__, r.rank_results is None) for r in results}
        assert kinds == {
            ("RunResult", True),
            ("EnsembleRunResult", True),
            ("RunResult", False),
        }
        for result in results:
            result.solver()  # a cached solver must stay out of it too
            text = repr(result)
            assert len(text) < 300 and "\n" not in text, text
            assert type(result).__name__ in text
            assert str(result.f.shape) in text
            assert repr(config.backend) in text
        parallel = results[-1]
        assert "ranks=2" in repr(parallel)
        for record in parallel.rank_results:
            text = repr(record)
            assert len(text) < 300 and "\n" not in text, text
            assert "array" not in text
        text = repr(results[1].member)
        assert len(text) < 300 and "\n" not in text, text
        assert "array" not in text
