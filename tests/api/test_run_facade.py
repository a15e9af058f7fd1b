"""The repro.api facade: RunSpec validation, sequential/parallel
dispatch and environment overlay precedence."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.api import RunSpec, execute_parallel, run
from repro.config import (
    ENV_CKPT_DIR,
    ENV_CKPT_EVERY,
    ENV_CKPT_KEEP,
    ENV_CKPT_RESUME,
    ENV_TRANSPORT,
    EnvConfig,
    from_env,
    set_discovery_env,
)
from repro.core.policies import RemappingConfig
from repro.lbm.solver import MulticomponentLBM
from repro.parallel.launch import resolve_transport


def skewed_load(rank, phase, points):
    return points * (1.0 + 0.5 * rank)


REMAP = dict(
    policy="filtered",
    remap_config=RemappingConfig(interval=4),
    load_time_fn=skewed_load,
)


class TestRunSpecValidation:
    def test_defaults_are_sequential(self, two_component_config):
        spec = RunSpec(config=two_component_config, phases=3)
        assert spec.ranks == 1 and spec.transport is None

    def test_negative_phases_rejected(self, two_component_config):
        with pytest.raises(ValueError, match="phases"):
            RunSpec(config=two_component_config, phases=-1)

    def test_zero_ranks_rejected(self, two_component_config):
        with pytest.raises(ValueError, match="ranks"):
            RunSpec(config=two_component_config, phases=1, ranks=0)

    @pytest.mark.parametrize("decomp", ["grid", (2, 2)])
    def test_2d_rank_grids_are_refused(self, two_component_config, decomp):
        with pytest.raises(ValueError, match="2-D rank grids were removed"):
            RunSpec(config=two_component_config, phases=1, decomp=decomp)

    @pytest.mark.parametrize("decomp", ["auto", "slab"])
    def test_slab_decomp_runs_the_slabs(self, two_component_config, decomp):
        spec = RunSpec(
            config=two_component_config, phases=2, ranks=2, decomp=decomp,
            policy="no-remap",
        )
        records = execute_parallel(spec)
        assert [(r.plane_start, r.plane_count) for r in records] == [(0, 6), (6, 6)]

    def test_store_and_dir_are_exclusive(self, two_component_config, tmp_path):
        from repro.ckpt import CheckpointStore

        with pytest.raises(ValueError, match="not both"):
            RunSpec(
                config=two_component_config,
                phases=1,
                checkpoint_store=CheckpointStore(tmp_path / "a"),
                checkpoint_dir=tmp_path / "b",
            )

    def test_parallel_only_knobs_rejected_sequentially(
        self, two_component_config
    ):
        spec = RunSpec(
            config=two_component_config, phases=1, load_time_fn=skewed_load
        )
        with pytest.raises(ValueError, match="requires ranks > 1"):
            run(spec)

    def test_resume_needs_a_store(self, two_component_config):
        with pytest.raises(ValueError, match="needs a checkpoint_store"):
            run(RunSpec(config=two_component_config, phases=1, resume=True))

    def test_spec_is_frozen(self, two_component_config):
        spec = RunSpec(config=two_component_config, phases=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.phases = 2


class TestDispatch:
    def test_sequential_run_matches_solver(self, two_component_config):
        direct = MulticomponentLBM(two_component_config)
        direct.run(6)
        result = run(RunSpec(config=two_component_config, phases=6))
        assert np.array_equal(result.f, direct.f)
        assert result.rank_results is None
        assert result.solver().step_count == 6

    def test_parallel_run_matches_sequential(self, two_component_config):
        direct = MulticomponentLBM(two_component_config)
        direct.run(8)
        result = run(
            RunSpec(config=two_component_config, phases=8, ranks=3, **REMAP)
        )
        assert np.array_equal(result.f, direct.f)
        assert len(result.rank_results) == 3
        assert np.array_equal(result.solver().f, direct.f)
        # The rebuilt solver carries the run's phase count (it used to
        # read 0 for a parallel run, and run_sweep reports it as steps).
        assert result.solver().step_count == 8

    def test_backend_override_applies(self, two_component_config):
        assert two_component_config.backend != "reference"
        oracle = dataclasses.replace(two_component_config, backend="reference")
        result = run(RunSpec(config=oracle, phases=2))
        assert result.config.backend == "reference"
        assert result.solver().backend.name == "reference"

    def test_checkpoint_dir_builds_a_store_and_resumes(
        self, two_component_config, tmp_path
    ):
        direct = MulticomponentLBM(two_component_config)
        direct.run(8)
        ckpt = tmp_path / "ckpt"
        run(RunSpec(
            config=two_component_config,
            phases=4,
            checkpoint_dir=ckpt,
            checkpoint_every=2,
        ))
        # Finish the remaining phases from the persisted generation.
        result = run(RunSpec(
            config=two_component_config,
            phases=8,
            checkpoint_dir=ckpt,
            checkpoint_every=2,
            resume=True,
        ))
        assert np.array_equal(result.f, direct.f)

    def test_top_level_reexports(self):
        assert repro.RunSpec is RunSpec
        assert repro.run is run


class TestEnvOverlay:
    def test_transport_filled_from_env(
        self, two_component_config, monkeypatch
    ):
        monkeypatch.setenv(ENV_TRANSPORT, "processes")
        assert resolve_transport(None) == "processes"
        spec = RunSpec(config=two_component_config, phases=1)
        assert from_env().overlay(spec).transport == "processes"

    def test_explicit_spec_beats_env(
        self, two_component_config, monkeypatch
    ):
        monkeypatch.setenv(ENV_TRANSPORT, "processes")
        spec = RunSpec(
            config=two_component_config, phases=1, transport="threads"
        )
        assert from_env().overlay(spec).transport == "threads"

    def test_ckpt_family_overlays_together(
        self, two_component_config, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(ENV_CKPT_DIR, str(tmp_path / "env-ckpt"))
        monkeypatch.setenv(ENV_CKPT_EVERY, "3")
        monkeypatch.setenv(ENV_CKPT_KEEP, "1")
        spec = RunSpec(config=two_component_config, phases=1)
        overlaid = from_env().overlay(spec)
        assert str(overlaid.checkpoint_dir) == str(tmp_path / "env-ckpt")
        assert overlaid.checkpoint_every == 3
        assert overlaid.checkpoint_keep == 1

    def test_explicit_store_suppresses_env_ckpt(
        self, two_component_config, monkeypatch, tmp_path
    ):
        from repro.ckpt import CheckpointStore

        monkeypatch.setenv(ENV_CKPT_DIR, str(tmp_path / "env-ckpt"))
        store = CheckpointStore(tmp_path / "explicit")
        spec = RunSpec(
            config=two_component_config, phases=1, checkpoint_store=store
        )
        overlaid = from_env().overlay(spec)
        assert overlaid.checkpoint_dir is None
        assert overlaid.checkpoint_store is store

    def test_unknown_transport_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(ENV_TRANSPORT, "carrier-pigeon")
        with pytest.raises(ValueError, match="carrier-pigeon"):
            resolve_transport(None)

    def test_set_discovery_env_round_trips(self, monkeypatch, tmp_path):
        # set_discovery_env writes os.environ directly; delenv on an
        # absent key records nothing to undo, so setenv first to register
        # the original (absent) state for rollback, then clear it.
        for var in (ENV_TRANSPORT, ENV_CKPT_DIR, ENV_CKPT_EVERY, ENV_CKPT_RESUME):
            monkeypatch.setenv(var, "unset-me")
            monkeypatch.delenv(var)
        set_discovery_env(
            transport="processes",
            ckpt_dir=str(tmp_path / "d"),
            ckpt_every=5,
            ckpt_resume=True,
        )
        env = from_env()
        assert env == EnvConfig(
            transport="processes",
            ckpt_dir=str(tmp_path / "d"),
            ckpt_every=5,
            ckpt_resume=True,
            trace=env.trace,
            backend=env.backend,
            ckpt_keep=env.ckpt_keep,
        )
