"""What a served job leaves behind.

A finished job must be freed by reference counting alone: the cyclic
collector's allocation counters do not see how large a NumPy buffer is,
so results parked in reference cycles pile up between collections (a
served sweep used to leave 110 unreachable objects per call, six final
states among them).  And nothing on the serve path may format a result:
CPython 3.11's ``asyncio.run`` describes the finished main task on its
way out, so a payload returned through it was ``repr()``-ed, arrays and
all, twice per call.

Each case runs with the collector disabled and ``gc.DEBUG_SAVEALL`` set,
then looks at what one explicit collection found unreachable.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc

import numpy as np
import pytest

from repro.api import EnsembleRunResult, RunResult, run
from repro.ckpt import FaultPlan
from repro.lbm.loop import NumericalInstability
from repro.lbm.solver import MulticomponentLBM
from repro.parallel.driver import ParallelLBM
from repro.scenarios import HomogeneousScenario
from repro.serve import (
    JobCancelled,
    JobFailed,
    JobState,
    Scheduler,
    serve_many,
)
from repro.serve.scheduler import _Entry, _Job
from repro.sweep import SweepParameter, SweepSpec, Uniform, run_sweep

from tests.serve.test_scheduler import spec_with_amplitude
from tests.serve.workload import base_config

HEAVY = (
    RunResult,
    MulticomponentLBM,
    ParallelLBM,
    Scheduler,
    _Entry,
    _Job,
    asyncio.Future,
)


def small_sweep() -> SweepSpec:
    cfg = dataclasses.replace(
        base_config(),
        wall_force=None,
        scenario=HomogeneousScenario(amplitude=0.05, decay_length=2.0),
    )
    return SweepSpec(
        base_config=cfg,
        phases=4,
        parameters=(SweepParameter("amplitude", Uniform(0.02, 0.1)),),
        n_samples=4,
        seed=5,
        sampler="lhs",
        repeats=2,
    )


@contextlib.contextmanager
def unreachable_after():
    """Yields a list that, on exit, holds every object one collection
    found unreachable among those the block created."""
    found: list[object] = []
    gc.collect()  # earlier tests' cycles are not this block's
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
        found.extend(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def heavy(found: list[object]) -> list[str]:
    return sorted(type(o).__name__ for o in found if isinstance(o, HEAVY))


class TestNoCyclicGarbage:
    def test_served_sweep(self):
        spec = small_sweep()
        run_sweep(spec, via="serve", workers=2)  # imports, thread pool
        with unreachable_after() as found:
            result = run_sweep(spec, via="serve", workers=2)
            assert result.submissions == 8 and result.executions == 4
            del result
        assert heavy(found) == []

    def test_serve_many(self):
        specs = [spec_with_amplitude(a) for a in (0.03, 0.05, 0.05, 0.07)]
        serve_many(specs, workers=2)
        with unreachable_after() as found:
            results = serve_many(specs, workers=2)
            for result in results:
                result.solver()  # the solver a client caches on it
            del results, result
        assert heavy(found) == []

    def test_parallel_run_with_checkpoints_and_a_stop_rule(self, tmp_path):
        # The step loop holds a rank's checkpoint writer and residual
        # sample only while the rank runs.
        spec = dataclasses.replace(
            spec_with_amplitude(0.05, phases=8),
            ranks=2,
            transport="threads",
            checkpoint_every=4,
            check_every=2,
            tol=1e-12,
        )
        run(dataclasses.replace(spec, checkpoint_dir=tmp_path / "warm"))
        with unreachable_after() as found:
            result = run(dataclasses.replace(spec, checkpoint_dir=tmp_path / "run"))
            del result
        assert heavy(found) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_parallel_run(self):
        spec = dataclasses.replace(
            spec_with_amplitude(3.0, phases=400), ranks=2, transport="threads"
        )
        with unreachable_after() as found, np.errstate(all="ignore"):
            try:
                run(spec)
            except NumericalInstability:
                pass
            else:
                raise AssertionError("the run did not diverge")
        assert heavy(found) == []

    def test_failed_job_awaited_by_its_clients(self):
        spec = dataclasses.replace(
            spec_with_amplitude(0.05, phases=8),
            ranks=2,
            transport="threads",
            faults=FaultPlan.kill_job(4),
        )
        seen = []

        async def main() -> None:
            async with Scheduler(workers=1, retries=0) as sched:
                leader = await sched.submit(spec)
                follower = await sched.submit(spec)
                for job in (leader, follower):
                    # try/except, not pytest.raises: an ExceptionInfo
                    # kept in this frame would be a cycle of the test's.
                    try:
                        await sched.result(job)
                    except JobFailed as exc:
                        assert exc.job_id == job
                    else:
                        raise AssertionError("the job did not fail")
                    # A finished job still answers for its entry.
                    status = sched.status(job)
                    seen.append((status.state, status.attempts, status.error))

        with unreachable_after() as found:
            asyncio.run(main())
        assert heavy(found) == []
        assert [s[:2] for s in seen] == [(JobState.FAILED, 1)] * 2
        assert all("injected fault" in s[2] for s in seen)

    def test_cancelled_follower(self):
        spec = spec_with_amplitude(0.06)
        seen = []

        async def main() -> None:
            async with Scheduler(workers=1) as sched:
                leader = await sched.submit(spec)
                follower = await sched.submit(spec)
                assert sched.cancel(follower)
                result = await sched.result(leader)
                try:
                    await sched.result(follower)
                except JobCancelled:
                    pass
                else:
                    raise AssertionError("the follower was not cancelled")
                seen.append(np.array_equal(result.f, run(spec).f))
                status = sched.status(leader)
                seen.append((status.state, status.attempts, status.error))
                seen.append(sched.status(follower).state)

        with unreachable_after() as found:
            asyncio.run(main())
        assert heavy(found) == []
        assert seen == [True, (JobState.DONE, 1, None), JobState.CANCELLED]

    def test_waiter_cancelled_while_waiting_leaves_the_job_running(self):
        spec = spec_with_amplitude(0.08)

        async def main() -> bool:
            async with Scheduler(workers=1) as sched:
                job = await sched.submit(spec)
                waiter = asyncio.create_task(sched.result(job))
                await asyncio.sleep(0)  # let it start waiting
                waiter.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await waiter
                result = await sched.result(job)
                return np.array_equal(result.f, run(spec).f)

        assert asyncio.run(main())


class TestNothingFormatsAResult:
    @pytest.fixture
    def repr_calls(self, monkeypatch):
        calls = []

        def counting(self):
            calls.append(type(self).__name__)
            return f"<{type(self).__name__}>"

        for cls in (RunResult, EnsembleRunResult):
            monkeypatch.setattr(cls, "__repr__", counting)
        return calls

    def test_served_sweep(self, repr_calls):
        result = run_sweep(small_sweep(), via="serve", workers=2, keep_results=True)
        assert len(result.results) == 8
        assert repr_calls == []

    def test_serve_many(self, repr_calls):
        specs = [spec_with_amplitude(a) for a in (0.03, 0.05, 0.05, 0.07)]
        assert len(serve_many(specs, workers=2)) == 4
        assert repr_calls == []
