"""Why a spec fell out of the batched-ensemble path must be visible.

``run_batch`` used to fall back to the plain sequential path silently;
now every excluded spec carries the machine-readable reason on its
result (:attr:`repro.api.RunResult.batch_fallback_reason`) and bumps an
``api.batch.fallback.<reason>`` observer counter.  One test per reason.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    BATCH_EXCLUSION_REASONS,
    EnsembleRunResult,
    RunSpec,
    batch_compatible,
    batch_exclusion_reason,
    run_batch,
)
from repro.config import ENV_CKPT_DIR
from repro.obs.observer import Observer

from tests.api.test_run_batch import sweep_specs


def fallback_counts(obs: Observer) -> dict[str, float]:
    return {
        name.removeprefix("api.batch.fallback."): snap["value"]
        for name, snap in obs.registry.snapshot().items()
        if name.startswith("api.batch.fallback.")
    }


class TestRunBatchRecordsReason:
    """Reasons observable end-to-end through ``run_batch``."""

    def test_parallel_ranks(self, two_component_config):
        obs = Observer()
        specs = sweep_specs(
            two_component_config, [0.02, 0.05], phases=3, ranks=2
        )
        results = run_batch(specs, observer=obs)
        assert [r.batch_fallback_reason for r in results] == (
            ["parallel-ranks"] * 2
        )
        assert fallback_counts(obs) == {"parallel-ranks": 2}

    def test_checkpoint(self, two_component_config, tmp_path):
        obs = Observer()
        specs = sweep_specs(two_component_config, [0.02], phases=3)
        specs[0] = dataclasses.replace(
            specs[0], checkpoint_dir=tmp_path / "ckpt", checkpoint_every=1
        )
        results = run_batch(specs, observer=obs)
        assert results[0].batch_fallback_reason == "checkpoint"
        assert fallback_counts(obs) == {"checkpoint": 1}

    def test_trace(self, two_component_config, tmp_path):
        obs = Observer()
        specs = sweep_specs(two_component_config, [0.02, 0.05], phases=3)
        specs[0] = dataclasses.replace(
            specs[0], trace_path=str(tmp_path / "trace.jsonl")
        )
        results = run_batch(specs, observer=obs)
        assert results[0].batch_fallback_reason == "trace"
        # the remaining eligible spec is alone, which is itself a reason
        assert results[1].batch_fallback_reason == "no-compatible-partner"
        assert fallback_counts(obs) == {
            "trace": 1,
            "no-compatible-partner": 1,
        }

    def test_observer(self, two_component_config):
        obs = Observer()
        specs = sweep_specs(two_component_config, [0.02, 0.05], phases=3)
        specs[0] = dataclasses.replace(specs[0], observer=Observer())
        results = run_batch(specs, observer=obs)
        assert results[0].batch_fallback_reason == "observer"
        assert fallback_counts(obs)["observer"] == 1

    def test_adhesion(self, two_component_config):
        obs = Observer()
        cfg = dataclasses.replace(two_component_config, adhesion=(0.1, -0.1))
        results = run_batch(sweep_specs(cfg, [0.02, 0.05], phases=3), observer=obs)
        assert [r.batch_fallback_reason for r in results] == ["adhesion"] * 2
        assert fallback_counts(obs) == {"adhesion": 2}

    def test_backend(self, two_component_config):
        # The stack is the default `fused` arithmetic; the `reference`
        # oracle is never put on it, and the env default counts too.
        obs = Observer()
        cfg = dataclasses.replace(two_component_config, backend="reference")
        results = run_batch(sweep_specs(cfg, [0.02, 0.05], phases=3), observer=obs)
        assert [r.batch_fallback_reason for r in results] == ["backend"] * 2
        assert fallback_counts(obs) == {"backend": 2}

    def test_no_compatible_partner_singleton(self, two_component_config):
        obs = Observer()
        (result,) = run_batch(
            [RunSpec(config=two_component_config, phases=3)], observer=obs
        )
        assert result.batch_fallback_reason == "no-compatible-partner"
        assert fallback_counts(obs) == {"no-compatible-partner": 1}

    def test_no_compatible_partner_phase_mismatch(self, two_component_config):
        obs = Observer()
        specs = sweep_specs(two_component_config, [0.02, 0.05], phases=3)
        specs += sweep_specs(two_component_config, [0.08], phases=5)
        results = run_batch(specs, observer=obs)
        assert results[0].batch_fallback_reason is None
        assert results[1].batch_fallback_reason is None
        assert results[2].batch_fallback_reason == "no-compatible-partner"
        assert fallback_counts(obs) == {"no-compatible-partner": 1}

    def test_batched_results_carry_no_reason(self, two_component_config):
        obs = Observer()
        results = run_batch(
            sweep_specs(two_component_config, [0.02, 0.05], phases=3),
            observer=obs,
        )
        assert all(isinstance(r, EnsembleRunResult) for r in results)
        assert all(r.batch_fallback_reason is None for r in results)
        assert fallback_counts(obs) == {}

    def test_null_observer_records_reason_without_counters(
        self, two_component_config
    ):
        results = run_batch(
            sweep_specs(two_component_config, [0.02], phases=3, ranks=2)
        )
        assert results[0].batch_fallback_reason == "parallel-ranks"


class TestExclusionReasonPredicate:
    """Reasons for spec shapes ``run_batch`` itself could never execute
    (they fail validation in :func:`repro.api.run`) are still reported
    by the predicate the serve coalescer uses for admission."""

    def test_resume(self, two_component_config):
        spec = RunSpec(config=two_component_config, phases=3, resume=True)
        assert batch_exclusion_reason(spec) == "resume"

    def test_faults(self, two_component_config):
        spec = RunSpec(config=two_component_config, phases=3, faults=object())
        assert batch_exclusion_reason(spec) == "faults"

    def test_load_time_fn(self, two_component_config):
        spec = RunSpec(
            config=two_component_config, phases=3, load_time_fn=lambda *a: 1.0
        )
        assert batch_exclusion_reason(spec) == "load-time-fn"

    def test_env_checkpoint(self, two_component_config, monkeypatch, tmp_path):
        # A raw (un-overlaid) spec sees the discovered checkpoint dir as
        # its own reason; after the overlay it becomes "checkpoint".
        monkeypatch.setenv(ENV_CKPT_DIR, str(tmp_path / "ckpt"))
        spec = RunSpec(config=two_component_config, phases=3)
        assert batch_exclusion_reason(spec) == "env-checkpoint"

    def test_checkpoint_wins_over_resume(self, two_component_config, tmp_path):
        spec = RunSpec(
            config=two_component_config,
            phases=3,
            checkpoint_dir=tmp_path / "ckpt",
            resume=True,
        )
        assert batch_exclusion_reason(spec) == "checkpoint"

    def test_eligible_spec_has_no_reason(self, two_component_config):
        spec = RunSpec(config=two_component_config, phases=3)
        assert batch_exclusion_reason(spec) is None

    def test_every_reason_is_registered(self, two_component_config, tmp_path):
        produced = {
            batch_exclusion_reason(spec)
            for spec in [
                RunSpec(config=two_component_config, phases=3, ranks=2),
                RunSpec(
                    config=two_component_config,
                    phases=3,
                    checkpoint_dir=tmp_path,
                ),
                RunSpec(config=two_component_config, phases=3, resume=True),
                RunSpec(
                    config=two_component_config, phases=3, faults=object()
                ),
                RunSpec(
                    config=two_component_config, phases=3, trace_path="t.jsonl"
                ),
                RunSpec(
                    config=two_component_config,
                    phases=3,
                    load_time_fn=lambda *a: 1.0,
                ),
                RunSpec(
                    config=two_component_config, phases=3, observer=Observer()
                ),
                RunSpec(
                    config=dataclasses.replace(
                        two_component_config, adhesion=(0.1, -0.1)
                    ),
                    phases=3,
                ),
                RunSpec(
                    config=dataclasses.replace(
                        two_component_config, backend="reference"
                    ),
                    phases=3,
                ),
            ]
        }
        assert None not in produced
        # every produced reason is a registered constant; the two
        # remaining constants are assigned elsewhere (env discovery,
        # run_batch grouping)
        assert produced | {"env-checkpoint", "no-compatible-partner"} == set(
            BATCH_EXCLUSION_REASONS
        )


class TestBatchCompatible:
    def test_sweep_pair_is_compatible(self, two_component_config):
        a, b = sweep_specs(two_component_config, [0.02, 0.05], phases=3)
        assert batch_compatible(a, b)
        assert batch_compatible(b, a)

    def test_identical_specs_are_compatible(self, two_component_config):
        a, b = sweep_specs(two_component_config, [0.02, 0.02], phases=3)
        assert batch_compatible(a, b)

    def test_phase_mismatch_is_incompatible(self, two_component_config):
        (a,) = sweep_specs(two_component_config, [0.02], phases=3)
        (b,) = sweep_specs(two_component_config, [0.05], phases=4)
        assert not batch_compatible(a, b)

    def test_ineligible_partner_is_incompatible(self, two_component_config):
        (a,) = sweep_specs(two_component_config, [0.02], phases=3)
        (b,) = sweep_specs(two_component_config, [0.05], phases=3, ranks=2)
        assert not batch_compatible(a, b)

    def test_geometry_mismatch_is_incompatible(self, two_component_config):
        (a,) = sweep_specs(two_component_config, [0.02], phases=3)
        other = dataclasses.replace(
            two_component_config,
            geometry=dataclasses.replace(
                two_component_config.geometry,
                shape=tuple(
                    s + 2 for s in two_component_config.geometry.shape
                ),
            ),
        )
        (b,) = sweep_specs(other, [0.05], phases=3)
        assert not batch_compatible(a, b)


class TestEnvironmentReadOncePerCall:
    """One ``config.from_env()`` per public call, read at call time (it
    was four per ``batch_compatible`` and two per missed ``submit``)."""

    @pytest.fixture
    def env_reads(self, monkeypatch):
        import repro.config as config_mod

        reads = []
        original = config_mod.from_env

        def counting(environ=None):
            reads.append(environ)
            return original(environ)

        monkeypatch.setattr(config_mod, "from_env", counting)
        return reads

    def test_batch_compatible(self, two_component_config, env_reads):
        a, b = sweep_specs(two_component_config, [0.02, 0.05], phases=3)
        assert batch_compatible(a, b)
        assert len(env_reads) == 1

    def test_batch_exclusion_reason(self, two_component_config, env_reads):
        (a,) = sweep_specs(two_component_config, [0.02], phases=3)
        assert batch_exclusion_reason(a) is None
        assert len(env_reads) == 1

    def test_missed_submit(self, two_component_config, env_reads):
        import asyncio

        from repro.serve import Scheduler

        (a,) = sweep_specs(two_component_config, [0.02], phases=3)

        async def main() -> list[int]:
            sched = Scheduler(workers=1)  # not started: nothing executes
            before = len(env_reads)
            job = await sched.submit(a)
            missed = len(env_reads) - before
            await sched.submit(a)  # joins in flight: no new entry
            joined = len(env_reads) - before - missed
            sched.cancel(job)
            return [missed, joined]

        assert asyncio.run(main()) == [1, 0]

    def test_coalescer_probe_reads_nothing(self, two_component_config, env_reads):
        """A worker's batch probe uses what submit settled: no read per
        candidate (there were two, plus two overlays)."""
        import asyncio

        from repro.serve import Scheduler

        specs = sweep_specs(two_component_config, [0.02, 0.05, 0.08], phases=3)

        async def main() -> tuple[int, list[int]]:
            sched = Scheduler(workers=1, coalesce=8)  # not started
            for spec in specs:
                await sched.submit(spec)
            before = len(env_reads)
            batch = sched._take_batch()
            return len(env_reads) - before, [len(e.jobs) for e in batch]

        assert asyncio.run(main()) == (0, [1, 1, 1])

    def test_still_read_at_call_time(
        self, two_component_config, monkeypatch, tmp_path
    ):
        a, b = sweep_specs(two_component_config, [0.02, 0.05], phases=3)
        assert batch_compatible(a, b)
        monkeypatch.setenv(ENV_CKPT_DIR, str(tmp_path / "ckpt"))
        assert not batch_compatible(a, b)  # no snapshot outlives a call
