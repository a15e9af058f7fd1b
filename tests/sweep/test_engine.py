"""Sweep engine: both substrates, serve-side dedup accounting,
batch-vs-serve bitwise parity, and result bookkeeping."""

import dataclasses

import numpy as np
import pytest

from repro.api import RunResult
from repro.lbm.components import ComponentSpec
from repro.lbm.diagnostics import (
    apparent_slip_fraction,
    slip_fraction,
    streamwise_velocity_profiles,
)
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.scenarios import HomogeneousScenario, PatternedScenario, RoughScenario
from repro.sweep import Discrete, SweepParameter, SweepSpec, Uniform, run_sweep


def small_sweep(*, repeats: int = 1, n_samples: int = 3) -> SweepSpec:
    config = LBMConfig(
        geometry=ChannelGeometry(shape=(10, 14)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        scenario=HomogeneousScenario(amplitude=0.06, decay_length=2.5),
        body_acceleration=(1e-6, 0.0),
    )
    return SweepSpec(
        base_config=config,
        phases=4,
        parameters=(SweepParameter("amplitude", Uniform(0.02, 0.1)),),
        n_samples=n_samples,
        seed=3,
        sampler="lhs",
        repeats=repeats,
    )


def test_batch_substrate_runs_every_submission():
    spec = small_sweep()
    result = run_sweep(spec, via="batch")
    assert result.via == "batch"
    assert len(result.samples) == 3
    assert result.submissions == result.executions == 3
    assert result.dedup_ratio == 0.0
    assert all(s.steps == 4 for s in result.samples)
    assert np.isfinite(result.slip_array()).all()


def test_serve_substrate_dedups_the_repeat_rounds():
    spec = small_sweep(repeats=2)
    result = run_sweep(spec, via="serve", workers=2)
    assert result.submissions == 6
    assert result.executions == 3  # the second round is pure cache
    assert result.dedup_ratio > 0.0
    assert result.cache_hit_rate > 0.0


def test_batch_and_serve_agree_bitwise():
    spec = small_sweep(repeats=2)
    batch = run_sweep(spec, via="batch", keep_results=True)
    serve = run_sweep(spec, via="serve", keep_results=True)
    assert len(batch.results) == len(serve.results) == 6
    for a, b in zip(batch.results, serve.results):
        assert np.array_equal(a.f, b.f)
    for sa, sb, spec_run in zip(
        batch.samples, serve.samples, spec.run_specs()[:: spec.repeats]
    ):
        assert sa.slip == sb.slip
        assert sa.apparent_slip == sb.apparent_slip
        assert sa.steps == sb.steps == spec.phases
        assert sa.params == sb.params
        # serve reports the key the scheduler hashed at submit; batch
        # hashes the sample itself.
        assert sa.fingerprint == sb.fingerprint == spec_run.fingerprint()


def test_results_are_dropped_unless_requested():
    assert run_sweep(small_sweep(), via="batch").results is None
    kept = run_sweep(small_sweep(), via="batch", keep_results=True)
    assert kept.results is not None and len(kept.results) == 3


def test_throughput_accounting_is_positive():
    result = run_sweep(small_sweep(), via="batch")
    assert result.elapsed_s > 0.0
    assert result.samples_per_second > 0.0
    assert result.us_per_point > 0.0


def test_unknown_substrate_rejected():
    with pytest.raises(ValueError, match="serve"):
        run_sweep(small_sweep(), via="mpi")


def test_the_sweep_is_compiled_once_per_call(monkeypatch):
    """One draw of the samples per ``run_sweep`` (it used to be three:
    ``run_specs()``, ``configs()`` and ``samples()`` each redrew them)."""
    draws = []
    original = SweepSpec.samples

    def counting(self):
        draws.append(self)
        return original(self)

    monkeypatch.setattr(SweepSpec, "samples", counting)
    for via in ("batch", "serve"):
        del draws[:]
        run_sweep(small_sweep(repeats=2), via=via)
        assert len(draws) == 1, via


def test_compile_matches_the_per_view_accessors():
    spec = small_sweep(repeats=2)
    samples, distinct = spec.compile()
    assert samples == spec.samples()
    assert [s.config for s in distinct] == spec.configs()
    assert [s.fingerprint() for s in spec.run_specs()] == [
        s.fingerprint() for s in distinct for _ in range(2)
    ]


def scenario_sweep(name: str) -> SweepSpec:
    """A homogeneous, rough or patterned sweep, run long enough that
    some samples' core profiles are concave (``apparent_slip`` set)."""
    spec = small_sweep(repeats=2, n_samples=4)
    scenario, parameters = {
        "homogeneous": (spec.base_config.scenario, spec.parameters),
        "rough": (
            RoughScenario(amplitude=0.06, decay_length=2.5, rms=0.8, max_height=2, seed=5),
            spec.parameters,
        ),
        "patterned": (
            PatternedScenario(amplitude_hi=0.06, duty=0.5, decay_length=2.5, period=6),
            (
                SweepParameter("duty", Discrete((0.25, 0.5))),
                SweepParameter("amplitude_hi", Discrete((0.04, 0.08))),
            ),
        ),
    }[name]
    return dataclasses.replace(
        spec,
        base_config=dataclasses.replace(
            spec.base_config,
            geometry=ChannelGeometry(shape=(6, 22)),
            scenario=scenario,
        ),
        parameters=parameters,
        phases=60,
        sampler="lhs" if name != "patterned" else "mc",
    )


def rebuilt_solver_measures(result: RunResult, boundary_layer: float = 4.0):
    """What the engine used to compute for a sample: every streamwise
    plane of a solver rebuilt from the result, measured one by one."""
    solver = result.solver()
    lines = streamwise_velocity_profiles(solver)

    def average(measure):
        values = np.asarray([measure(line) for line in lines])
        return float(values[0] if np.all(values == values[0]) else values.mean())

    try:
        apparent = average(
            lambda line: apparent_slip_fraction(line, boundary_layer=boundary_layer)
        )
    except ValueError:
        apparent = None
    return average(slip_fraction), apparent, solver.step_count


@pytest.mark.parametrize("via", ["batch", "serve"])
@pytest.mark.parametrize("scenario", ["homogeneous", "rough", "patterned"])
def test_samples_equal_the_rebuilt_solver_measures(scenario, via):
    spec = scenario_sweep(scenario)
    result = run_sweep(spec, via=via, keep_results=True)
    for sample in result.samples:
        expected = rebuilt_solver_measures(result.results[sample.index * spec.repeats])
        assert (sample.slip, sample.apparent_slip, sample.steps) == expected


@pytest.mark.parametrize("via", ["batch", "serve"])
def test_samples_are_measured_without_building_a_solver(monkeypatch, via):
    calls = []
    original = RunResult.solver

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RunResult, "solver", counting)
    result = run_sweep(small_sweep(repeats=2), via=via)
    assert len(result.samples) == 3
    assert calls == []


@pytest.mark.parametrize("via", ["batch", "serve"])
def test_a_diverged_sample_fails_alone(via):
    """Amplitude 3.0 blows up within 400 phases: those samples report
    the error and a NaN slip, and the 0.1 samples are measured."""
    from repro.experiments.channel import channel_config

    spec = SweepSpec(
        base_config=channel_config((16, 42), HomogeneousScenario(amplitude=0.1)),
        phases=400,
        parameters=(SweepParameter("amplitude", Discrete((0.1, 3.0))),),
        n_samples=6,
        seed=1,
    )
    with np.errstate(all="ignore"):
        result = run_sweep(spec, via=via)
    failed = [s for s in result.samples if s.error is not None]
    healthy = [s for s in result.samples if s.error is None]
    assert failed and healthy
    assert {s.params["amplitude"] for s in failed} == {3.0}
    assert all("NumericalInstability" in s.error for s in failed)
    assert np.isnan([s.slip for s in failed]).all()
    assert np.isfinite([s.slip for s in healthy]).all()
    assert all(s.steps == 400 for s in healthy)
    if via == "batch":  # the healthy samples ran again, in a batch of their own
        assert result.executions == result.submissions + len(healthy)


@pytest.mark.parametrize("via", ["batch", "serve"])
def test_a_failure_other_than_divergence_fails_the_sweep(monkeypatch, via):
    """Only the physics' failure becomes a failed sample: a crashed
    worker (or a bug) still raises out of :func:`run_sweep`."""
    import repro.serve.scheduler as scheduler
    import repro.sweep.engine as engine

    def crash(*args, **kwargs):
        raise RuntimeError("worker died")

    monkeypatch.setattr(engine, "run_batch", crash)
    monkeypatch.setattr(scheduler, "run_batch", crash)
    monkeypatch.setattr(scheduler, "run", crash)
    expected = scheduler.JobFailed if via == "serve" else RuntimeError
    with pytest.raises(expected, match="worker died"):
        run_sweep(small_sweep(), via=via)


def test_a_diverged_sample_is_not_served_again_in_later_rounds():
    """A physics failure is deterministic and the Scheduler caches no
    failure: rounds 2..R answer a sample that diverged in round one with
    that same error instead of running it again."""
    from repro.experiments.channel import channel_config

    spec = SweepSpec(
        base_config=channel_config((16, 42), HomogeneousScenario(amplitude=0.1)),
        phases=400,
        parameters=(SweepParameter("amplitude", Discrete((0.1, 3.0))),),
        n_samples=6,
        seed=1,
        repeats=3,
    )
    with np.errstate(all="ignore"):
        served = run_sweep(spec, via="serve", keep_results=True)
        once = run_sweep(dataclasses.replace(spec, repeats=1), via="serve")
    assert served.submissions == 18  # every repeat is still answered
    assert served.executions == 2  # one 0.1 run, one 3.0 run (was 4)
    assert served.dedup_ratio == 1.0 - 2 / 18

    def measured(result):  # the slip's bits: NaN for a failed sample
        return [(s.slip.hex(), s.apparent_slip, s.steps, s.error) for s in result.samples]

    assert measured(served) == measured(once)
    for i, sample in enumerate(served.samples):
        rounds = served.results[i * 3 : i * 3 + 3]
        if sample.error is not None:
            assert rounds[1] is rounds[0] and rounds[2] is rounds[0]
        else:
            assert all(np.array_equal(r.f, rounds[0].f) for r in rounds)
