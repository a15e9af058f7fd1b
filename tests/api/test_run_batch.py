"""The repro.api.run_batch facade: grouping of compatible specs into
batched ensembles, fallback of ineligible specs to the plain path, and
the bit-identity guarantee against individual :func:`repro.api.run`
calls."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.api import EnsembleRunResult, RunSpec, run, run_batch
from repro.config import ENV_CKPT_DIR


def sweep_specs(config, amplitudes, phases=6, **kwargs):
    specs = []
    for a in amplitudes:
        cfg = dataclasses.replace(
            config,
            wall_force=dataclasses.replace(config.wall_force, amplitude=a),
        )
        specs.append(RunSpec(config=cfg, phases=phases, **kwargs))
    return specs


class TestGrouping:
    def test_wall_sweep_batches_and_matches_run(self, two_component_config):
        specs = sweep_specs(two_component_config, [0.02, 0.05, 0.09])
        results = run_batch(specs)
        assert all(isinstance(r, EnsembleRunResult) for r in results)
        for spec, result in zip(specs, results):
            solo = run(spec)
            assert np.array_equal(result.f, solo.f)
            assert result.spec.config is spec.config

    def test_results_come_back_in_input_order(self, two_component_config):
        specs = sweep_specs(two_component_config, [0.09, 0.02, 0.05])
        results = run_batch(specs)
        for spec, result in zip(specs, results):
            assert (
                result.config.wall_force.amplitude
                == spec.config.wall_force.amplitude
            )

    def test_mixed_phase_targets_split_groups(self, two_component_config):
        specs = sweep_specs(two_component_config, [0.02, 0.05], phases=6)
        specs += sweep_specs(two_component_config, [0.08], phases=9)
        results = run_batch(specs)
        # The odd-phases spec cannot join the group; it runs alone
        # through the plain path.
        assert isinstance(results[0], EnsembleRunResult)
        assert isinstance(results[1], EnsembleRunResult)
        assert not isinstance(results[2], EnsembleRunResult)
        solo = run(specs[2])
        assert np.array_equal(results[2].f, solo.f)

    def test_singleton_group_uses_plain_path(self, two_component_config):
        (result,) = run_batch([RunSpec(config=two_component_config, phases=4)])
        assert not isinstance(result, EnsembleRunResult)
        solo = run(RunSpec(config=two_component_config, phases=4))
        assert np.array_equal(result.f, solo.f)

    def test_g_sweep_batches(self, two_component_config):
        specs = []
        for scale in (0.8, 1.0, 1.2):
            cfg = dataclasses.replace(
                two_component_config,
                g_matrix=np.asarray(two_component_config.g_matrix) * scale,
            )
            specs.append(RunSpec(config=cfg, phases=5))
        results = run_batch(specs)
        assert all(isinstance(r, EnsembleRunResult) for r in results)
        for spec, result in zip(specs, results):
            assert np.array_equal(result.f, run(spec).f)


class TestEligibility:
    def test_parallel_specs_fall_back(self, two_component_config):
        specs = sweep_specs(
            two_component_config, [0.02, 0.05], phases=4, ranks=2
        )
        results = run_batch(specs)
        assert not any(isinstance(r, EnsembleRunResult) for r in results)
        for spec, result in zip(specs, results):
            assert np.array_equal(result.f, run(spec).f)

    def test_fused_specs_fall_back_and_match_run(self, two_component_config):
        # Inverted when `fused` became the default and the ensemble's
        # arithmetic: fused specs stack (and match run() bit for bit);
        # it is a spec naming the `reference` oracle that falls back,
        # because stacking it would return other bits than run() gives.
        assert two_component_config.backend == "fused"
        fused = sweep_specs(two_component_config, [0.02, 0.05], phases=6)
        oracle_cfg = dataclasses.replace(two_component_config, backend="reference")
        oracle = sweep_specs(oracle_cfg, [0.02, 0.05], phases=6)
        results = run_batch([*fused, *oracle])
        for spec, result in zip(fused, results[:2]):
            assert isinstance(result, EnsembleRunResult)
            assert result.batch_fallback_reason is None
            assert np.array_equal(result.f, run(spec).f)
        for spec, result in zip(oracle, results[2:]):
            assert not isinstance(result, EnsembleRunResult)
            assert result.batch_fallback_reason == "backend"
            assert result.config.backend == "reference"
            assert np.array_equal(result.f, run(spec).f)
        # Same physics, other bits: the two arithmetics never mix.
        assert not np.array_equal(results[0].f, results[2].f)
        assert np.allclose(results[0].f, results[2].f, rtol=1e-12, atol=1e-14)

    def test_env_checkpointing_disables_batching(
        self, two_component_config, monkeypatch, tmp_path
    ):
        # A discovered REPRO_CKPT_DIR means every run persists state;
        # the batched engine has no checkpoint hooks, so batching must
        # switch off rather than silently drop the checkpoints.
        monkeypatch.setenv(ENV_CKPT_DIR, str(tmp_path / "ckpt"))
        specs = sweep_specs(two_component_config, [0.02, 0.05], phases=3)
        results = run_batch(specs)
        assert not any(isinstance(r, EnsembleRunResult) for r in results)

    def test_incompatible_geometry_splits(self, two_component_config):
        from repro.lbm.geometry import ChannelGeometry

        other = dataclasses.replace(
            two_component_config,
            geometry=ChannelGeometry(
                shape=tuple(
                    s + 2 for s in two_component_config.geometry.shape
                )
            ),
        )
        specs = sweep_specs(two_component_config, [0.02, 0.05], phases=3)
        specs += sweep_specs(other, [0.03, 0.06], phases=3)
        results = run_batch(specs)
        # Two independent groups of two, each internally batched.
        assert all(isinstance(r, EnsembleRunResult) for r in results)
        for spec, result in zip(specs, results):
            assert np.array_equal(result.f, run(spec).f)


class TestEnsembleRunResult:
    def test_solver_restores_final_state(self, two_component_config):
        specs = sweep_specs(two_component_config, [0.02, 0.07], phases=6)
        results = run_batch(specs)
        solo = run(specs[1]).solver()
        restored = results[1].solver()
        assert np.array_equal(restored.f, solo.f)
        assert np.array_equal(restored.rho, solo.rho)
        assert restored.step_count == solo.step_count == 6

    def test_member_metadata_attached(self, two_component_config):
        specs = sweep_specs(two_component_config, [0.02, 0.07], phases=4)
        results = run_batch(specs)
        for result in results:
            assert result.member is not None
            assert result.member.steps == 4
            assert result.rank_results is None

    def test_convergence_knobs_forwarded(self, two_component_config):
        specs = sweep_specs(two_component_config, [0.02, 0.07], phases=5_000)
        results = run_batch(specs, check_every=5, tol=1.0)
        # tol=1.0 converges everyone at the second check.
        assert all(r.member.converged for r in results)
        assert all(r.member.steps == 10 for r in results)

    def test_top_level_reexport(self):
        assert repro.run_batch is run_batch
