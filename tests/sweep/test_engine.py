"""Sweep engine: both substrates, serve-side dedup accounting,
batch-vs-serve bitwise parity, and result bookkeeping."""

import numpy as np
import pytest

from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.scenarios import HomogeneousScenario
from repro.sweep import SweepParameter, SweepSpec, Uniform, run_sweep


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
    assert result.param_array("amplitude").shape == (3,)


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
