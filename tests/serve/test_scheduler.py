"""Unit tests for the :mod:`repro.serve` scheduler and result cache.

Async paths run through plain ``asyncio.run`` (no asyncio pytest plugin
in the toolchain); every served result is checked bit-identical against
a direct :func:`repro.api.run` of the same spec.
"""

import asyncio
import dataclasses
import time

import numpy as np
import pytest

from repro.api import (
    RunSpec,
    batch_compatible,
    batch_exclusion_reason,
    run,
)
from repro.ckpt import FaultPlan
from repro.lbm.geometry import ChannelGeometry
from repro.obs.observer import Observer
from repro.serve import (
    JobCancelled,
    JobFailed,
    JobState,
    ResultCache,
    Scheduler,
    serve_many,
)

from tests.serve.workload import base_config, make_workload

PHASES = 4


def spec_with_amplitude(amplitude: float, phases: int = PHASES) -> RunSpec:
    cfg = base_config()
    return RunSpec(
        config=dataclasses.replace(
            cfg,
            wall_force=dataclasses.replace(
                cfg.wall_force, amplitude=amplitude
            ),
        ),
        phases=phases,
    )


class TestResultCache:
    def test_hit_miss_counting(self):
        cache = ResultCache(4)
        assert cache.get("a") is None
        cache.put("a", "result-a")
        assert cache.get("a") == "result-a"
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate() == 0.5
        assert "a" in cache
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_zero_capacity_never_stores(self):
        cache = ResultCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_counters_reach_observer(self):
        obs = Observer()
        cache = ResultCache(4, observer=obs)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        snap = obs.registry.snapshot()
        assert snap["serve.cache.miss"]["value"] == 1
        assert snap["serve.cache.hit"]["value"] == 1


class TestScheduler:
    def test_served_result_is_bit_identical_to_direct_run(self):
        spec = spec_with_amplitude(0.05)

        async def main():
            async with Scheduler(workers=1) as sched:
                job = await sched.submit(spec)
                result = await sched.result(job)
                status = sched.status(job)
                return result, status, sched.executions

        result, status, executions = asyncio.run(main())
        assert status.state is JobState.DONE
        assert not status.deduped
        assert status.attempts == 1
        assert executions == 1
        assert np.array_equal(result.f, run(spec).f)

    def test_execution_leaves_the_event_loop_free(self):
        """A job runs off the event loop: a coroutine ticking every 5 ms
        on the scheduler's loop keeps ticking while an uncached job of
        about half a second executes, its largest gap under a quarter of
        the job's wall time (a job run on the loop itself is one gap as
        long as the job).  The grid is large enough that NumPy releases
        the GIL for most of each step."""
        small = spec_with_amplitude(0.05, phases=500)
        spec = dataclasses.replace(
            small,
            config=dataclasses.replace(
                small.config,
                geometry=ChannelGeometry(shape=(128, 96), wall_axes=(1,)),
            ),
        )

        async def main():
            ticks: list[float] = []

            async def heartbeat():
                while True:
                    ticks.append(time.perf_counter())
                    await asyncio.sleep(0.005)

            async with Scheduler(workers=1) as sched:
                beat = asyncio.create_task(heartbeat())
                await asyncio.sleep(0)  # the first tick precedes the job
                start = time.perf_counter()
                await sched.result(await sched.submit(spec))
                end = time.perf_counter()
                beat.cancel()
                await asyncio.gather(beat, return_exceptions=True)
                return end - start, np.diff([*ticks, end]), sched.executions

        wall, gaps, executions = asyncio.run(main())
        assert executions == 1
        assert wall >= 0.1, f"a {wall:.3f} s job cannot tell 5 ms ticks apart; grow it"
        assert gaps.max() < wall / 4, (
            f"event loop stalled {gaps.max():.3f} s of a {wall:.3f} s job"
        )

    def test_completed_dedup_serves_from_cache(self):
        spec = spec_with_amplitude(0.05)

        async def main():
            async with Scheduler(workers=1) as sched:
                first = await sched.submit(spec)
                r1 = await sched.result(first)
                second = await sched.submit(spec)
                s2 = sched.status(second)
                r2 = await sched.result(second)
                return r1, r2, s2, sched.executions, sched.cache.hits

        r1, r2, s2, executions, hits = asyncio.run(main())
        assert s2.state is JobState.DONE
        assert s2.deduped
        assert executions == 1
        assert hits == 1
        assert r2 is r1  # the very same cached object

    def test_inflight_dedup_joins_pending_entry(self):
        spec = spec_with_amplitude(0.05)

        async def main():
            sched = Scheduler(workers=1)
            # Submit twice before any worker exists: the second must
            # join the first as a follower rather than queue new work.
            leader = await sched.submit(spec)
            follower = await sched.submit(spec)
            assert sched.status(follower).deduped
            assert not sched.status(leader).deduped
            await sched.start()
            r1 = await sched.result(leader)
            r2 = await sched.result(follower)
            await sched.close()
            return r1, r2, sched.executions, sched.dedup_joins

        r1, r2, executions, joins = asyncio.run(main())
        assert executions == 1
        assert joins == 1
        assert r2 is r1

    def test_cancel_queued_job(self):
        spec = spec_with_amplitude(0.05)

        async def main():
            sched = Scheduler(workers=1)
            job = await sched.submit(spec)
            assert sched.cancel(job)
            assert not sched.cancel(job)  # already terminal
            assert sched.status(job).state is JobState.CANCELLED
            with pytest.raises(JobCancelled):
                await sched.result(job)
            await sched.start()
            await sched.close()
            return sched.executions

        assert asyncio.run(main()) == 0  # the entry never executed

    def test_cancelling_a_follower_keeps_the_leader(self):
        spec = spec_with_amplitude(0.05)

        async def main():
            sched = Scheduler(workers=1)
            leader = await sched.submit(spec)
            follower = await sched.submit(spec)
            assert sched.cancel(follower)
            await sched.start()
            result = await sched.result(leader)
            with pytest.raises(JobCancelled):
                await sched.result(follower)
            await sched.close()
            return result, sched.executions

        result, executions = asyncio.run(main())
        assert executions == 1
        assert np.array_equal(result.f, run(spec).f)

    def test_cancelling_the_leader_keeps_the_follower(self):
        spec = spec_with_amplitude(0.05)

        async def main():
            sched = Scheduler(workers=1)
            leader = await sched.submit(spec)
            follower = await sched.submit(spec)
            assert sched.cancel(leader)
            await sched.start()
            result = await sched.result(follower)
            await sched.close()
            return result, sched.executions

        result, executions = asyncio.run(main())
        assert executions == 1
        assert np.array_equal(result.f, run(spec).f)

    def test_failure_without_retry_budget_raises_jobfailed(self):
        spec = dataclasses.replace(
            spec_with_amplitude(0.05, phases=8),
            ranks=2,
            transport="threads",
            faults=FaultPlan.kill_job(4),
        )

        async def main():
            async with Scheduler(workers=1, retries=0) as sched:
                job = await sched.submit(spec)
                with pytest.raises(JobFailed) as err:
                    await sched.result(job)
                return sched.status(job), err.value

        status, err = asyncio.run(main())
        assert status.state is JobState.FAILED
        assert "injected fault" in status.error
        assert err.job_id == "job-000000"

    def test_worker_death_resumes_from_checkpoint(self, tmp_path):
        clean = dataclasses.replace(
            spec_with_amplitude(0.05, phases=8), ranks=2, transport="threads"
        )
        dying = dataclasses.replace(
            clean,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=2,
            faults=FaultPlan.kill_job(5),
        )

        async def main():
            async with Scheduler(workers=1, retries=1) as sched:
                job = await sched.submit(dying)
                result = await sched.result(job)
                return result, sched.status(job)

        result, status = asyncio.run(main())
        assert status.state is JobState.DONE
        assert status.attempts == 2  # first attempt died, retry resumed
        assert np.array_equal(result.f, run(clean).f)

    def test_coalescing_executes_compatible_specs_as_one_batch(self):
        specs = [spec_with_amplitude(0.02 + 0.01 * i) for i in range(4)]
        obs = Observer()

        async def main():
            sched = Scheduler(workers=1, coalesce=8, observer=obs)
            jobs = [await sched.submit(s) for s in specs]
            await sched.start()
            results = [await sched.result(j) for j in jobs]
            await sched.close()
            return results

        results = asyncio.run(main())
        snap = obs.registry.snapshot()
        assert snap["serve.coalesced"]["value"] == len(specs)
        for spec, result in zip(specs, results):
            assert np.array_equal(result.f, run(spec).f)

    def test_a_crash_in_a_coalesced_batch_fails_every_job_of_it(self, monkeypatch):
        """An exception out of ``run_batch`` itself is every entry's
        outcome, as it is a lone job's: nothing is re-run entry by
        entry, and the worker goes on serving."""
        import repro.serve.scheduler as scheduler

        calls = []

        def crash(specs, **kwargs):
            calls.append(len(specs))
            raise RuntimeError("batch died")

        monkeypatch.setattr(scheduler, "run_batch", crash)
        specs = [spec_with_amplitude(0.02 + 0.01 * i) for i in range(3)]
        after = spec_with_amplitude(0.09)

        async def main():
            sched = Scheduler(workers=1, coalesce=8)
            jobs = [await sched.submit(s) for s in specs]
            await sched.start()
            errors = []
            for job in jobs:
                with pytest.raises(JobFailed) as err:
                    await sched.result(job)
                errors.append(err.value)
            result = await sched.result(await sched.submit(after))
            executions = sched.executions
            await sched.close()
            return errors, result, executions

        errors, result, executions = asyncio.run(main())
        assert calls == [3]
        assert all(not e.diverged and "RuntimeError: batch died" in e.error for e in errors)
        assert executions == 4
        assert np.array_equal(result.f, run(after).f)

    def test_default_specs_coalesce_and_the_reference_oracle_runs_alone(self):
        """One queue holding the same three jobs twice, once on the
        default (``fused``) kernels and once naming ``reference``: the
        first three ride one stacked batch, the oracle's three run one
        by one, and every served result — coalesced or single — is the
        bits of a direct ``run`` of *its* spec.  The two arithmetics
        share neither a batch nor a cache entry."""
        default = [spec_with_amplitude(0.02 + 0.01 * i) for i in range(3)]
        assert all(s.config.backend == "fused" for s in default)
        oracle = [
            dataclasses.replace(
                s, config=dataclasses.replace(s.config, backend="reference")
            )
            for s in default
        ]
        specs = [*default, *oracle]
        assert [batch_exclusion_reason(s) for s in specs] == [None] * 3 + ["backend"] * 3
        assert not batch_compatible(default[0], oracle[1])
        obs = Observer()

        async def main():
            sched = Scheduler(workers=1, coalesce=8, observer=obs)
            jobs = [await sched.submit(s) for s in specs]
            await sched.start()
            results = [await sched.result(j) for j in jobs]
            await sched.close()
            return results, sched

        results, sched = asyncio.run(main())
        assert obs.registry.snapshot()["serve.coalesced"]["value"] == 3
        assert sched.executions == 6  # entries run, however they were grouped
        assert [type(r).__name__ for r in results] == (
            ["EnsembleRunResult"] * 3 + ["RunResult"] * 3
        )
        assert len(sched.cache) == 6 and sched.cache.hits == 0
        for spec, result in zip(specs, results):
            assert result.config.backend == spec.config.backend
            assert np.array_equal(result.f, run(spec).f)
        for stacked, alone in zip(results[:3], results[3:]):
            assert not np.array_equal(stacked.f, alone.f)
            assert np.allclose(stacked.f, alone.f, rtol=1e-12, atol=1e-14)
        # A single default job (nothing to coalesce with) is the same bits.
        single = serve_many(default[:1], workers=1)[0]
        assert np.array_equal(single.f, results[0].f)

    def test_serve_many_preserves_input_order(self):
        specs = make_workload(10, 0.5, seed=42)
        results = serve_many(specs, workers=2)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert np.array_equal(result.f, run(spec).f)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            Scheduler(workers=0)
        with pytest.raises(ValueError, match="coalesce"):
            Scheduler(coalesce=0)
        with pytest.raises(ValueError, match="retries"):
            Scheduler(retries=-1)

    def test_env_defaults_resolve_from_config(self, monkeypatch):
        import repro.config as config_mod

        monkeypatch.setenv(config_mod.ENV_SERVE_WORKERS, "5")
        monkeypatch.setenv(config_mod.ENV_SERVE_COALESCE, "3")
        monkeypatch.setenv(config_mod.ENV_SERVE_RETRIES, "2")
        monkeypatch.setenv(config_mod.ENV_SERVE_CACHE, "7")
        sched = Scheduler()
        assert sched.workers == 5
        assert sched.coalesce == 3
        assert sched.retries == 2
        assert sched.cache.capacity == 7

    def test_submit_rejections(self):
        async def main():
            sched = Scheduler(workers=1)
            with pytest.raises(TypeError):
                await sched.submit("not a spec")
            with pytest.raises(KeyError):
                sched.status("job-999999")
            await sched.start()
            await sched.close()
            with pytest.raises(RuntimeError, match="closed"):
                await sched.submit(spec_with_amplitude(0.05))

        asyncio.run(main())
