"""Batched-ensemble engine tests: spec validation, member-config
derivation, bit-exactness of every stacked member against its
standalone solver, ragged convergence with batch repacking, the
steady-state allocation guarantee and ensemble observability.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lbm.backends import FusedBackend
from repro.lbm.components import ComponentSpec
from repro.lbm.ensemble import (
    BatchedEnsemble,
    EnsembleSpec,
    MemberParams,
    run_ensemble,
)
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19, Lattice
from repro.lbm.solver import LBMConfig, MulticomponentLBM

from .test_backends import two_component_config


def base_config(lattice=D2Q9, *, wall_force=True, shape=None):
    if lattice.D == 2:
        shape = shape or (16, 12)
        accel = (2e-6, 0.0)
    else:
        shape = shape or (8, 7, 6)
        accel = (2e-6, 0.0, 0.0)
    return LBMConfig(
        geometry=ChannelGeometry(shape=shape),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=0.8, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=lattice,
        wall_force=WallForceSpec(amplitude=0.05, decay_length=2.0)
        if wall_force
        else None,
        body_acceleration=accel,
    )


def wall_sweep(n, lattice=D2Q9, lo=0.02, hi=0.12):
    base = base_config(lattice)
    amps = [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]
    return EnsembleSpec(
        base=base, members=tuple(MemberParams(wall_amplitude=a) for a in amps)
    )


def scaled_g(base, scale):
    """*base*'s coupling matrix times *scale*; ``None`` (inherit) at 1."""
    return None if scale == 1.0 else np.asarray(base.g_matrix) * scale


def g_sweep(base, scales):
    """Members that scale the base Shan-Chen coupling matrix."""
    return EnsembleSpec(
        base=base, members=tuple(MemberParams(g_matrix=scaled_g(base, s)) for s in scales)
    )


class TestSpecValidation:
    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            EnsembleSpec(base=base_config(), members=())

    def test_adhesion_rejected(self):
        cfg = dataclasses.replace(base_config(), adhesion=(-0.05, 0.05))
        with pytest.raises(ValueError, match="adhesion"):
            EnsembleSpec(base=cfg, members=(MemberParams(),))

    def test_wall_amplitude_without_base_wall_force_rejected(self):
        cfg = base_config(wall_force=False)
        with pytest.raises(ValueError, match="wall_amplitude"):
            EnsembleSpec(
                base=cfg, members=(MemberParams(wall_amplitude=0.1),)
            )

    def test_reference_backend_rejected(self):
        # The stack *is* the fused arithmetic: the oracle runs alone.
        cfg = dataclasses.replace(base_config(), backend="reference")
        with pytest.raises(ValueError, match="'fused' kernels"):
            EnsembleSpec(base=cfg, members=(MemberParams(),))

    def test_run_argument_validation(self):
        eng = BatchedEnsemble(wall_sweep(2))
        with pytest.raises(ValueError, match="n_steps"):
            eng.run(-1)
        with pytest.raises(ValueError, match="check_every"):
            dataclasses.replace(eng.spec, check_every=-1)


class TestMemberConfig:
    def test_wall_sweep_varies_only_amplitude(self):
        spec = wall_sweep(3)
        for i, amp in enumerate([0.02, 0.07, 0.12]):
            cfg = spec.member_config(i)
            assert cfg.wall_force.amplitude == pytest.approx(amp)
            assert cfg.wall_force.decay_length == spec.base.wall_force.decay_length
            assert np.array_equal(cfg.g_matrix, spec.base.g_matrix)

    def test_g_sweep_scales_matrix(self):
        spec = g_sweep(base_config(), [1.0, 1.5])
        assert np.array_equal(
            spec.member_config(1).g_matrix,
            np.asarray(spec.base.g_matrix) * 1.5,
        )
        # An unset matrix inherits: the base config is reused as-is.
        assert spec.member_config(0) is spec.base

    def test_body_acceleration_override(self):
        spec = EnsembleSpec(
            base=base_config(),
            members=(MemberParams(body_acceleration=(5e-6, 0.0)),),
        )
        assert spec.member_config(0).body_acceleration == (5e-6, 0.0)


class TestBatchedExactness:
    """Each stacked member must match its standalone ``fused`` solver
    *bitwise*: the batch is a leading grid axis nothing streams along,
    and ``fused`` kernels give a piece of the grid the bits of the
    whole."""

    @pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=lambda l: l.name)
    def test_members_bitwise_vs_standalone(self, lattice):
        spec = wall_sweep(3, lattice)
        result = run_ensemble(spec, 12)
        for i, member in enumerate(result.members):
            solo = MulticomponentLBM(spec.member_config(i))
            solo.run(12)
            assert np.array_equal(member.f, solo.f), f"member {i}"
            assert member.steps == 12 and not member.converged

    @pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=lambda l: l.name)
    def test_interior_obstacle_members_bitwise(self, lattice):
        # Solids inside the channel (a disc), not only wall planes:
        # the flat gather/scatter bounce-back against the masked one.
        base = two_component_config(
            lattice, scenario="obstacles", backend="fused"
        )
        spec = g_sweep(base, [0.8, 1.2])
        result = run_ensemble(spec, 15)
        for i, member in enumerate(result.members):
            solo = MulticomponentLBM(spec.member_config(i))
            solo.run(15)
            assert np.array_equal(member.f, solo.f), f"member {i}"

    def test_g_sweep_members_bitwise(self):
        spec = g_sweep(base_config(), [0.8, 1.0, 1.2])
        result = run_ensemble(spec, 10)
        for i, member in enumerate(result.members):
            solo = MulticomponentLBM(spec.member_config(i))
            solo.run(10)
            assert np.array_equal(member.f, solo.f), f"member {i}"

    def test_member_solver_restores_full_state(self):
        spec = wall_sweep(2)
        result = run_ensemble(spec, 8)
        solo = MulticomponentLBM(spec.member_config(1))
        solo.run(8)
        restored = result.members[1].solver()
        assert np.array_equal(restored.f, solo.f)
        assert np.array_equal(restored.rho, solo.rho)
        assert np.array_equal(restored.u_eq, solo.u_eq)
        assert restored.step_count == solo.step_count == 8

    @pytest.mark.parametrize("batch", [2, 6, 8])
    @pytest.mark.parametrize(
        "lattice, shape",
        [
            (D2Q9, (12, 18)),  # N % 16 == 8: every member starts mid-block
            (D2Q9, (13, 7)),  # N % 16 == 11
            (D2Q9, (32, 48)),  # 8 members: a product BLAS may thread
            (D3Q19, (5, 6, 7)),  # N % 16 == 2
        ],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v.name,
    )
    @pytest.mark.parametrize("shared_g", [True, False], ids=["shared-g", "own-g"])
    def test_stack_matrix_bitwise(self, lattice, shape, batch, shared_g):
        """Batch widths x grids whose point count is no multiple of the
        BLAS block x one coupling matrix for all / runs of members with
        their own (members 0-1 share one, so a run spans two members)."""
        assert shape == (32, 48) or int(np.prod(shape)) % 16
        base = base_config(lattice, shape=shape)
        members = tuple(
            MemberParams(
                wall_amplitude=0.02 + 0.01 * i,
                g_matrix=scaled_g(base, 1.0 if shared_g else 1.0 + 0.05 * (i // 2)),
            )
            for i in range(batch)
        )
        spec = EnsembleSpec(base=base, members=members)
        result = run_ensemble(spec, 8)
        for i, member in enumerate(result.members):
            solo = MulticomponentLBM(spec.member_config(i))
            assert solo.config.backend == "fused"
            solo.run(8)
            assert np.array_equal(member.f, solo.f), f"member {i}"

    def test_accounting(self):
        spec = wall_sweep(4)
        result = run_ensemble(spec, 5)
        assert result.member_steps == 4 * 5
        assert result.elapsed_s > 0.0
        assert result.us_per_point > 0.0


class TestBatchedConstraints:
    def test_large_stencil_lattice_rejected(self):
        # The stacked streaming plan assumes |c| <= 1 per axis; a lattice
        # violating that must be rejected at construction, not silently
        # miscomputed.  Both builtin lattices satisfy it today, so fake
        # a wide-stencil lattice.
        cfg = base_config()
        wide = Lattice("D2Q9-wide", D2Q9.c * 2, D2Q9.w)
        bad = dataclasses.replace(cfg, lattice=wide)
        with pytest.raises(ValueError, match="single-link"):
            FusedBackend(
                bad,
                (1,) + cfg.geometry.shape,
                cfg.geometry.solid_mask()[None],
                g_matrices=cfg.g_matrix[None],
            )

    def test_batch_size_must_be_positive(self):
        cfg = base_config()
        shape = cfg.geometry.shape
        with pytest.raises(ValueError, match="non-empty batch"):
            FusedBackend(
                cfg,
                (0,) + shape,
                np.zeros((0,) + shape, dtype=bool),
                g_matrices=np.zeros((0, 2, 2)),
            )
        # ... and one coupling matrix per member of it.
        with pytest.raises(ValueError, match="per member"):
            FusedBackend(
                cfg,
                (2,) + shape,
                np.broadcast_to(cfg.geometry.solid_mask(), (2,) + shape),
                g_matrices=cfg.g_matrix[None],
            )


class TestRaggedConvergence:
    def test_converged_members_retire_early_and_stay_exact(self):
        # A loose tolerance retires the weakly-forced members first; the
        # survivors must continue bit-identically through the repack.
        spec = dataclasses.replace(
            wall_sweep(3, lo=0.01, hi=0.3), check_every=10, tol=5e-5
        )
        result = run_ensemble(spec, 300)
        steps = [m.steps for m in result.members]
        assert any(m.converged for m in result.members)
        for i, member in enumerate(result.members):
            solo = MulticomponentLBM(spec.member_config(i))
            solo.run(member.steps)
            assert np.array_equal(member.f, solo.f), (
                f"member {i} diverged after repack (stopped at {steps})"
            )
            if member.converged:
                assert member.residual is not None and member.residual < 5e-5

    def test_all_members_converged_stops_stepping(self):
        spec = dataclasses.replace(wall_sweep(2), check_every=5, tol=1.0)
        result = run_ensemble(spec, 10_000)
        # tol=1.0 retires everyone at the second check (first check only
        # seeds u_prev).
        assert all(m.converged for m in result.members)
        assert all(m.steps == 10 for m in result.members)
        assert result.member_steps < 2 * 10_000

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        check_every=st.integers(min_value=3, max_value=12),
        exponent=st.integers(min_value=-6, max_value=-4),
        n_steps=st.integers(min_value=20, max_value=60),
    )
    def test_property_batched_equals_singleton_ensembles(
        self, n, check_every, exponent, n_steps
    ):
        """Whatever the batch composition, tolerance and check cadence,
        each member of a width-n ensemble is bit-identical to the same
        member run as a width-1 ensemble (which TestBatchedExactness ties
        to the standalone solver)."""
        tol = 10.0**exponent
        spec = dataclasses.replace(
            wall_sweep(n, lo=0.01, hi=0.25), check_every=check_every, tol=tol
        )
        batched = run_ensemble(spec, n_steps)
        for i in range(n):
            single = run_ensemble(
                dataclasses.replace(spec, members=(spec.members[i],)),
                n_steps,
            )
            assert batched.members[i].steps == single.members[0].steps
            assert batched.members[i].converged == single.members[0].converged
            assert np.array_equal(batched.members[i].f, single.members[0].f)


class TestAllocationFree:
    def test_steady_state_step_allocates_nothing_substantial(self):
        """Once warm, the batched step must run entirely in scratch
        sized at construction — no per-step stacked-field allocation."""
        spec = wall_sweep(4)
        eng = BatchedEnsemble(spec)
        for _ in range(3):
            eng.step()

        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(5):
                eng.step()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        # The fused kernels run over same-shape contiguous operands, so
        # not even NumPy's buffered iterator allocates: no field-sized
        # (B-proportional) array per step, and nothing retained.
        assert peak - baseline < 16 * 1024
        assert current - baseline < 16 * 1024

    def test_stream_is_in_place(self):
        """The stacked populations stream where they lie: ``stream``
        returns its argument and allocates no stacked buffer."""
        eng = BatchedEnsemble(wall_sweep(2))
        f = eng.f
        eng.backend.stream(f)  # warm
        returned = []
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            returned.append(eng.backend.stream(f))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert returned[0] is f
        assert peak - baseline < 64 * 1024
        for _ in range(6):
            eng.step()
            assert eng.f is f


class TestObservability:
    def test_null_observer_keeps_bare_backend(self):
        eng = BatchedEnsemble(wall_sweep(2))
        assert type(eng.backend) is FusedBackend
        assert eng.backend.shape == (2,) + eng.spec.base.geometry.shape

    def test_observer_records_run_event_and_metrics(self):
        from repro.lbm.backends.instrumented import InstrumentedBackend
        from repro.obs import MemorySink, Observer

        sink = MemorySink()
        obs = Observer(sink)
        spec = wall_sweep(3)
        eng = BatchedEnsemble(spec, observer=obs)
        assert isinstance(eng.backend, InstrumentedBackend)
        result = eng.run(6)

        events = [r for r in sink.events if r.get("type") == "ensemble.run"]
        assert len(events) == 1
        assert events[0]["members"] == 3
        assert events[0]["member_steps"] == 18
        assert result.metrics["ensemble.member_steps"] == 18
        # The instrumented run stays bit-identical to the untraced one.
        untraced = run_ensemble(spec, 6)
        for a, b in zip(result.members, untraced.members):
            assert np.array_equal(a.f, b.f)
