"""Concurrency/soak battery for the serve layer.

The acceptance surface from the serving design: under a duplicate-heavy
storm from many concurrent async clients, (1) every client receives a
result bit-identical to a direct :func:`repro.api.run` of its spec,
(2) no submission is lost and no fingerprint is executed twice,
(3) the dedup channels (cache hits + in-flight joins) absorb at least
the duplicate fraction, (4) cancelling deduplicated submissions never
disturbs their siblings, and (5) a deterministic worker death mid-job
(:class:`~repro.ckpt.FaultPlan`) resumes from checkpoint and completes
without any client-visible failure.

Transport is left unpinned where possible so CI's
``REPRO_TRANSPORT=processes`` leg re-runs the battery on forked ranks.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.api import RunSpec, run, spec_fingerprint
from repro.ckpt import FaultPlan
from repro.serve import JobCancelled, JobState, Scheduler

from tests.serve.workload import base_config, make_workload

N_JOBS = 64
DUPLICATE_FRACTION = 0.9
CLIENTS = 8


def direct_results(specs):
    """Reference results computed once per unique fingerprint."""
    reference = {}
    for spec in specs:
        key = spec_fingerprint(spec)
        if key not in reference:
            reference[key] = run(spec)
    return reference


async def _client(sched, specs, results, indices):
    for index, spec in zip(indices, specs):
        job = await sched.submit(spec)
        results[index] = await sched.result(job)


def serve_with_clients(specs, *, clients=CLIENTS, workers=2, coalesce=8):
    """Fan *specs* out over concurrent async clients; returns the
    results in submission order plus the scheduler's own accounting."""

    async def main():
        results = [None] * len(specs)
        async with Scheduler(workers=workers, coalesce=coalesce) as sched:
            await asyncio.gather(
                *(
                    _client(
                        sched,
                        specs[c::clients],
                        results,
                        range(c, len(specs), clients),
                    )
                    for c in range(clients)
                )
            )
            stats = {
                "executions": sched.executions,
                "submissions": sched.submissions,
                "hit_rate": sched.hit_rate(),
                "dedup_ratio": sched.dedup_ratio(),
            }
        return results, stats

    return asyncio.run(main())


class TestDuplicateHeavySoak:
    def test_64_clients_90_percent_duplicates(self):
        specs = make_workload(N_JOBS, DUPLICATE_FRACTION, seed=1234)
        unique = {spec_fingerprint(s) for s in specs}
        reference = direct_results(specs)

        results, stats = serve_with_clients(specs)

        # (2) nothing lost, nothing double-executed
        assert all(r is not None for r in results)
        assert stats["submissions"] == N_JOBS
        assert stats["executions"] == len(unique)
        # (3) dedup absorbed the duplicate fraction
        assert stats["hit_rate"] >= 0.8
        assert stats["dedup_ratio"] >= 0.8
        # (1) every client's result is bit-identical to a direct run
        for spec, result in zip(specs, results):
            assert np.array_equal(result.f, reference[spec_fingerprint(spec)].f)

    def test_mixed_duplicate_streams(self):
        """Several interleaved streams at different duplicate rates —
        the union still executes exactly once per fingerprint."""
        streams = [
            make_workload(16, 0.0, seed=7),
            make_workload(16, 0.5, seed=8),
            make_workload(16, 0.9, seed=9),
        ]
        specs = [s for trio in zip(*streams) for s in trio]
        unique = {spec_fingerprint(s) for s in specs}
        reference = direct_results(specs)

        results, stats = serve_with_clients(specs, clients=6, workers=2)

        assert stats["executions"] == len(unique)
        assert stats["submissions"] == len(specs)
        for spec, result in zip(specs, results):
            assert np.array_equal(result.f, reference[spec_fingerprint(spec)].f)

    def test_cancelling_duplicates_never_disturbs_siblings(self):
        specs = make_workload(32, 0.9, seed=77)
        reference = direct_results(specs)

        async def main():
            sched = Scheduler(workers=2)
            jobs = [await sched.submit(s) for s in specs]
            # Cancel every 5th submission before starting the pool;
            # whatever already completed from cache reports False.
            cancelled = {
                j for j in jobs[::5] if sched.cancel(j)
            }
            await sched.start()
            outcomes = []
            for job in jobs:
                if job in cancelled:
                    with pytest.raises(JobCancelled):
                        await sched.result(job)
                    outcomes.append(None)
                else:
                    outcomes.append(await sched.result(job))
            states = [sched.status(j).state for j in jobs]
            await sched.close()
            return outcomes, states, cancelled

        outcomes, states, cancelled = asyncio.run(main())
        assert cancelled, "expected at least one effective cancellation"
        for spec, outcome, state in zip(specs, outcomes, states):
            if outcome is None:
                assert state is JobState.CANCELLED
            else:
                assert state is JobState.DONE
                assert np.array_equal(
                    outcome.f, reference[spec_fingerprint(spec)].f
                )

    def test_worker_death_is_invisible_to_clients(self, tmp_path):
        """A deterministic mid-job kill on one submission: the retry
        resumes from the last checkpoint generation and every client —
        including followers deduplicated onto the dying entry — still
        receives the bit-exact result."""
        clean = dataclasses.replace(
            RunSpec(config=base_config(), phases=12),
            ranks=2,
        )
        dying = dataclasses.replace(
            clean,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=3,
            faults=FaultPlan.kill_job(7),
        )
        expected = run(clean)

        async def main():
            async with Scheduler(workers=2, retries=1) as sched:
                leader = await sched.submit(dying)
                follower = await sched.submit(dying)
                r1 = await sched.result(leader)
                r2 = await sched.result(follower)
                return r1, r2, sched.status(leader)

        r1, r2, status = asyncio.run(main())
        assert status.state is JobState.DONE
        assert status.attempts == 2  # the first attempt was killed
        assert r2 is r1
        assert np.array_equal(r1.f, expected.f)

    def test_exhausted_retries_fail_only_the_dying_entry(self, tmp_path):
        """A job that keeps dying (no checkpoint to resume from) fails
        after the budget, while unrelated jobs in the same storm are
        served untouched."""
        healthy = make_workload(8, 0.5, seed=5)
        doomed = dataclasses.replace(
            RunSpec(config=base_config(), phases=8),
            ranks=2,
            faults=FaultPlan.kill_job(3),
        )
        reference = direct_results(healthy)

        async def main():
            async with Scheduler(workers=2, retries=1) as sched:
                bad = await sched.submit(doomed)
                jobs = [await sched.submit(s) for s in healthy]
                failures = 0
                try:
                    await sched.result(bad)
                except Exception:
                    failures += 1
                results = [await sched.result(j) for j in jobs]
                return failures, results

        failures, results = asyncio.run(main())
        assert failures == 1
        for spec, result in zip(healthy, results):
            assert np.array_equal(result.f, reference[spec_fingerprint(spec)].f)
