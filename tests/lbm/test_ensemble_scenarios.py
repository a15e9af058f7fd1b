"""Scenario-varying ensembles: member-config derivation, bitwise
batched-vs-standalone differentials per scenario type, ragged
convergence through the repack, and the `run_batch` grouping rules
(same-wall rough variants batch; a different seed means a different
solid mask and falls back to a standalone run).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import RunSpec, run, run_batch
from repro.lbm.components import ComponentSpec
from repro.lbm.ensemble import EnsembleSpec, MemberParams, run_ensemble
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.scenarios import (
    HomogeneousScenario,
    PatternedScenario,
    RoughScenario,
)


def base_config(scenario) -> LBMConfig:
    return LBMConfig(
        geometry=ChannelGeometry(shape=(12, 20)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=0.8, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        scenario=scenario,
        body_acceleration=(2e-6, 0.0),
    )


def scenario_sweep(scenarios) -> EnsembleSpec:
    return EnsembleSpec(
        base=base_config(scenarios[0]),
        members=tuple(MemberParams(scenario=s) for s in scenarios),
    )


HOMOGENEOUS = [
    HomogeneousScenario(amplitude=a, decay_length=2.5)
    for a in (0.02, 0.06, 0.1)
]
PATTERNED = [
    PatternedScenario(amplitude_hi=0.06, amplitude_lo=0.0, period=4, duty=d)
    for d in (0.25, 0.5, 1.0)
]
ROUGH = [
    RoughScenario(amplitude=a, decay_length=2.5, rms=1.0, max_height=2, seed=3)
    for a in (0.02, 0.06, 0.1)
]


class TestMemberDerivation:
    def test_member_config_carries_the_member_scenario(self):
        spec = scenario_sweep(PATTERNED)
        for i, scenario in enumerate(PATTERNED):
            assert spec.member_config(i).scenario == scenario

    def test_member_scenario_without_base_scenario_rejected(self):
        with pytest.raises(ValueError, match="base config"):
            EnsembleSpec(
                base=base_config(None),
                members=(MemberParams(scenario=HOMOGENEOUS[0]),),
            )

    def test_mismatched_geometry_signature_rejected(self):
        other_wall = dataclasses.replace(ROUGH[0], seed=99)
        with pytest.raises(ValueError, match="solid mask"):
            EnsembleSpec(
                base=base_config(ROUGH[0]),
                members=(
                    MemberParams(scenario=ROUGH[1]),
                    MemberParams(scenario=other_wall),
                ),
            )


@pytest.mark.parametrize(
    "scenarios",
    [HOMOGENEOUS, PATTERNED, ROUGH],
    ids=["homogeneous", "patterned", "rough"],
)
class TestBatchedExactness:
    def test_each_member_bitwise_matches_standalone(self, scenarios):
        spec = scenario_sweep(scenarios)
        result = run_ensemble(spec, 12)
        for i, member in enumerate(result.members):
            solo = MulticomponentLBM(spec.member_config(i))
            solo.run(12)
            assert np.array_equal(member.f, solo.f), f"member {i}"

    def test_ragged_convergence_stays_exact(self, scenarios):
        spec = dataclasses.replace(
            scenario_sweep(scenarios), check_every=10, tol=5e-5
        )
        result = run_ensemble(spec, 300)
        for i, member in enumerate(result.members):
            solo = MulticomponentLBM(spec.member_config(i))
            solo.run(member.steps)
            assert np.array_equal(member.f, solo.f), (
                f"member {i} diverged after repack (stopped at "
                f"{[m.steps for m in result.members]})"
            )


class TestRunBatchGrouping:
    def test_patterned_duty_variants_batch(self):
        specs = [
            RunSpec(config=base_config(s), phases=3) for s in PATTERNED
        ]
        results = run_batch(specs)
        assert all(r.batch_fallback_reason is None for r in results)
        for spec, result in zip(specs, results):
            assert np.array_equal(result.f, run(spec).f)

    def test_rough_same_wall_batches_different_seed_falls_back(self):
        same_wall = [
            RunSpec(config=base_config(s), phases=3) for s in ROUGH
        ]
        loner = RunSpec(
            config=base_config(dataclasses.replace(ROUGH[0], seed=42)),
            phases=3,
        )
        results = run_batch([*same_wall, loner])
        assert all(
            r.batch_fallback_reason is None for r in results[:-1]
        )
        assert results[-1].batch_fallback_reason == "no-compatible-partner"
        for spec, result in zip([*same_wall, loner], results):
            assert np.array_equal(result.f, run(spec).f)


class TestSharedSetUp:
    """What a batch's members share is built once: one config per
    member, one height draw per rough wall geometry."""

    @pytest.fixture
    def fresh_geometry_cache(self, monkeypatch):
        from collections import OrderedDict

        import repro.lbm.geometry as geometry_module

        monkeypatch.setattr(geometry_module, "_geometry_cache", OrderedDict())
        monkeypatch.setattr(geometry_module, "_geometry_cache_bytes", 0)

    @pytest.fixture
    def height_draws(self, monkeypatch, fresh_geometry_cache):
        """One entry per rough height draw (each seeds its generators)."""
        import repro.scenarios.rough as rough

        draws = []
        original = rough.spawn_rngs

        def counting(seed, n):
            draws.append(seed)
            return original(seed, n)

        monkeypatch.setattr(rough, "spawn_rngs", counting)
        return draws

    @pytest.mark.parametrize(
        "scenarios",
        [HOMOGENEOUS, PATTERNED, ROUGH],
        ids=["homogeneous", "patterned", "rough"],
    )
    def test_member_config_runs_once_per_member(self, scenarios, monkeypatch):
        calls = []
        original = EnsembleSpec.member_config

        def counting(self, i):
            calls.append(i)
            return original(self, i)

        monkeypatch.setattr(EnsembleSpec, "member_config", counting)
        spec = scenario_sweep(scenarios)
        result = run_ensemble(spec, 2)
        assert sorted(calls) == list(range(spec.size))  # was 2B
        monkeypatch.undo()
        for i, member in enumerate(result.members):
            assert member.config == spec.member_config(i)

    def test_rough_heights_drawn_once_per_geometry(self, height_draws):
        result = run_ensemble(scenario_sweep(ROUGH), 2)
        for member in result.members:
            member.solver()
        assert len(height_draws) == 1  # 16 while every use drew its own

    def test_run_sweep_draws_rough_heights_once(self, height_draws):
        from repro.sweep import SweepParameter, SweepSpec, Uniform, run_sweep

        spec = SweepSpec(
            base_config=base_config(ROUGH[0]),
            phases=2,
            parameters=(SweepParameter("amplitude", Uniform(0.02, 0.1)),),
            n_samples=4,
            seed=1,
            sampler="lhs",
            repeats=2,
        )
        for via in ("batch", "serve"):
            run_sweep(spec, via=via)
        assert len(height_draws) == 1

    def test_two_wall_draws_are_two_entries(self, height_draws):
        other = dataclasses.replace(ROUGH[0], seed=42)
        masks = [
            MulticomponentLBM(base_config(s)).solid for s in (ROUGH[0], other, ROUGH[1])
        ]
        assert len(height_draws) == 2
        assert masks[0] is masks[2]  # same signature: one shared mask
        assert not np.array_equal(masks[0], masks[1])
