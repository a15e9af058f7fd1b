"""The stop rule and the health rule live on the RunSpec, and run the same
on every substrate (repro.lbm.loop): one spec stops on the same step with
the same populations alone, stacked, served or parallel, and a diverged
run raises NumericalInstability wherever it runs, and is never cached."""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.api import EnsembleRunResult, RunSpec, batch_partners, run, run_batch
from repro.core.policies import RemappingConfig
from repro.experiments.channel import channel_config
from repro.lbm.loop import NumericalInstability
from repro.scenarios import HomogeneousScenario
from repro.serve import JobFailed, Scheduler


def stop_spec(amplitude: float = 0.1, nx: int = 8, **knobs) -> RunSpec:
    """A channel that converges to ``tol`` well before its phase cap."""
    return RunSpec(
        config=channel_config((nx, 24), HomogeneousScenario(amplitude=amplitude)),
        phases=3000,
        check_every=20,
        tol=2e-6,
        **knobs,
    )


def serve(specs: list[RunSpec], coalesce: int) -> list:
    results: list = []

    async def main() -> None:
        async with Scheduler(workers=1, coalesce=coalesce) as sched:
            jobs = [await sched.submit(s) for s in specs]
            results.extend([await sched.result(j) for j in jobs])

    asyncio.run(main())
    return results


class TestOneSpecOneAnswer:
    def test_seven_ways_stop_on_the_same_step_with_the_same_bits(self):
        spec = stop_spec()
        partner = stop_spec(amplitude=0.15)
        answers = {
            "sequential": run(spec),
            "threads": run(dataclasses.replace(spec, ranks=2, transport="threads")),
            "processes": run(
                dataclasses.replace(spec, ranks=2, transport="processes")
            ),
            "stacked": run_batch([spec, partner])[0],
            "alone": run_batch([spec])[0],
            "served-coalesced": serve([spec, partner], coalesce=2)[0],
            "served-single": serve([spec], coalesce=1)[0],
        }
        # The stacked ways really stacked; the lone ones really ran alone.
        for way, result in answers.items():
            stacked = way in ("stacked", "served-coalesced")
            assert isinstance(result, EnsembleRunResult) == stacked, way
        assert answers["alone"].batch_fallback_reason == "no-compatible-partner"
        steps = {way: result.steps for way, result in answers.items()}
        assert len(set(steps.values())) == 1, steps
        assert steps["sequential"] < spec.phases, "the rule never stopped the run"
        reference = answers["sequential"].f
        for way, result in answers.items():
            assert np.array_equal(result.f, reference), way

    def test_migrated_planes_carry_their_residual_sample(self):
        # The slow rank changes every 100 phases, so the filtered
        # remapper keeps moving planes between checks; the residual must
        # not notice.
        def load(rank, phase, points):
            return points * (1.0 + 2.0 * (rank == (phase // 100) % 3))

        spec = stop_spec(nx=12)
        remapped = run(
            dataclasses.replace(
                spec,
                ranks=3,
                transport="threads",
                remap_config=RemappingConfig(interval=4),
                load_time_fn=load,
            )
        )
        # Round 5 is phase 20, the first check: planes moved after it.
        assert len(set(remapped.rank_results[0].plane_history[5:])) > 1
        alone = run(spec)
        assert remapped.steps == alone.steps < spec.phases
        assert np.array_equal(remapped.f, alone.f)

    def test_the_rule_is_part_of_the_fingerprint_only_when_it_can_stop(self):
        spec = stop_spec()
        capped = dataclasses.replace(spec, tol=0.0)
        assert spec.fingerprint() != capped.fingerprint()
        # A cadence alone only adds health checks: same result, same key.
        assert (
            dataclasses.replace(capped, check_every=0).fingerprint()
            == capped.fingerprint()
        )

    def test_specs_with_different_rules_never_share_a_batch(self):
        spec = stop_spec()
        assert batch_partners(spec, stop_spec(amplitude=0.15))
        assert not batch_partners(spec, dataclasses.replace(spec, tol=1e-6))
        assert not batch_partners(spec, dataclasses.replace(spec, check_every=40))
        results = run_batch([spec, dataclasses.replace(spec, tol=0.0)])
        assert [r.batch_fallback_reason for r in results] == [
            "no-compatible-partner"
        ] * 2

    def test_a_tolerance_needs_a_cadence(self):
        with pytest.raises(ValueError, match="check_every"):
            dataclasses.replace(stop_spec(), check_every=0)
        with pytest.raises(ValueError, match="tol"):
            dataclasses.replace(stop_spec(), tol=-1.0)


def diverging(amplitude: float, **knobs) -> RunSpec:
    """A wall force far past the paper's 0.2: the state blows up."""
    return RunSpec(
        config=channel_config((16, 42), HomogeneousScenario(amplitude=amplitude)),
        phases=400,
        **knobs,
    )


@pytest.mark.parametrize("amplitude", [1.0, 3.0])
# Every substrate honours the caller's np.errstate, rank threads included.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDivergenceIsAnError:
    @pytest.mark.parametrize(
        "knobs",
        [{}, {"ranks": 2, "transport": "threads"}, {"ranks": 2, "transport": "processes"}],
        ids=["sequential", "threads", "processes"],
    )
    def test_run_raises(self, amplitude, knobs):
        spec = diverging(amplitude, **knobs)
        with np.errstate(all="ignore"), pytest.raises(NumericalInstability) as info:
            run(spec)
        exc = info.value
        assert exc.fingerprint == spec.fingerprint()
        assert 0 < exc.phase <= spec.phases
        assert (exc.rank is not None) == ("ranks" in knobs)
        assert f"phase {exc.phase}" in str(exc)

    def test_run_batch_raises_for_the_diverged_spec(self, amplitude):
        healthy = diverging(0.1)
        bad = diverging(amplitude)
        with np.errstate(all="ignore"), pytest.raises(NumericalInstability) as info:
            run_batch([healthy, bad])
        assert info.value.fingerprint == bad.fingerprint()

    def test_served_failure_is_never_cached(self, amplitude):
        healthy = diverging(0.1)
        bad = diverging(amplitude)
        outcomes: list = []
        executions: list[int] = []

        async def main() -> None:
            async with Scheduler(workers=1, coalesce=2) as sched:
                for _ in range(2):
                    jobs = [await sched.submit(s) for s in (healthy, bad)]
                    for job in jobs:
                        try:
                            outcomes.append(await sched.result(job))
                        except JobFailed as exc:
                            outcomes.append(exc)
                    executions.append(sched.executions)

        with np.errstate(all="ignore"):
            asyncio.run(main())
        # The coalesced batch failed as a whole, and its healthy member
        # was still answered; the re-submitted diverged spec ran again.
        assert np.isfinite(outcomes[0].f).all()
        assert isinstance(outcomes[1], JobFailed)
        assert "NumericalInstability" in str(outcomes[1])
        assert isinstance(outcomes[3], JobFailed)
        assert executions == [2, 3]
