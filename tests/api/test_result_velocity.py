"""A result carries its run's final mixture velocity.

``result.velocity()`` is ``result.solver().velocity()`` bit for bit,
whichever path produced the result.  Sequential runs and batched
members hand the velocity over from the run itself, so reading it
builds no solver; a parallel result derives it through ``solver()``.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.api import RunResult, RunSpec, run, run_batch
from repro.serve import Scheduler

from tests.api.test_run_batch import sweep_specs

PHASES = 5


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts ``RunResult.solver`` calls from here on."""
    calls = []
    original = RunResult.solver

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RunResult, "solver", counting)
    return calls


@pytest.fixture(params=["d2q9", "d3q19"])
def config(request, two_component_config, two_component_config_3d):
    return {
        "d2q9": two_component_config,
        "d3q19": two_component_config_3d,
    }[request.param]


def assert_carried(result: RunResult, solver_calls: list) -> None:
    """The velocity is there without a solver, and it is the solver's."""
    before = len(solver_calls)
    u = result.velocity()
    assert len(solver_calls) == before
    assert u.shape == (result.config.lattice.D,) + result.config.geometry.shape
    assert np.array_equal(u, result.solver().velocity())
    assert result.velocity() is u


def test_sequential_results_carry_their_velocity(config, solver_calls):
    assert_carried(run(RunSpec(config=config, phases=PHASES)), solver_calls)


def test_batched_members_carry_their_velocity(config, solver_calls):
    results = run_batch(sweep_specs(config, [0.02, 0.05, 0.09], phases=PHASES))
    assert all(r.member is not None for r in results)
    for result in results:
        assert_carried(result, solver_calls)
        # ... and it is the velocity the member's solo run ends with.
        assert np.array_equal(result.velocity(), run(result.spec).velocity())


def test_a_member_retired_early_carries_its_snapshot_velocity(
    two_component_config, solver_calls
):
    specs = [
        dataclasses.replace(s, check_every=10, tol=5e-5)
        for s in sweep_specs(two_component_config, [0.01, 0.155, 0.3], phases=300)
    ]
    results = run_batch(specs)
    steps = [r.member.steps for r in results]
    assert min(steps) < 300 and max(steps) == 300, steps
    for result in results:
        assert_carried(result, solver_calls)
        solo = run(dataclasses.replace(result.spec, phases=result.steps))
        assert np.array_equal(result.velocity(), solo.velocity())


def test_served_results_carry_their_velocity_on_miss_and_hit(
    two_component_config, solver_calls
):
    spec = RunSpec(config=two_component_config, phases=PHASES)
    served: list[RunResult] = []
    deduped: list[bool] = []

    async def main() -> None:
        async with Scheduler(workers=1) as sched:
            for _ in range(2):
                job = await sched.submit(spec)
                served.append(await sched.result(job))
                deduped.append(sched.status(job).deduped)

    asyncio.run(main())
    assert deduped == [False, True]
    for result in served:
        assert_carried(result, solver_calls)
    assert np.array_equal(served[0].velocity(), run(spec).velocity())


def test_a_parallel_result_derives_its_velocity_through_the_solver(
    config, solver_calls
):
    # Threads unless REPRO_TRANSPORT says otherwise (CI reruns this suite
    # on forked ranks).
    spec = RunSpec(config=config, phases=PHASES, ranks=2, policy="no-remap")
    result = run(spec)
    u = result.velocity()
    assert len(solver_calls) == 1
    assert np.array_equal(u, result.solver().velocity())
    assert result.velocity() is u
    assert np.array_equal(u, run(dataclasses.replace(spec, ranks=1)).velocity())
