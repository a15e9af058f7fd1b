"""The parallel driver must produce identical physics under either
kernel backend: bitwise-equal to the matching sequential solver, and
within 1e-12 of the reference backend (same slip profiles)."""

import dataclasses

import numpy as np
import pytest

from repro import api
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.diagnostics import slip_fraction, velocity_profile
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig, MulticomponentLBM


def small_config(backend):
    geo = ChannelGeometry(shape=(20, 14), wall_axes=(1,))
    return LBMConfig(
        geometry=geo,
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        wall_force=WallForceSpec(amplitude=0.03),
        body_acceleration=(1e-6, 0.0),
        backend=backend,
    )


def static_f(cfg, ranks, phases):
    """Global populations of a no-remap parallel run."""
    spec = api.RunSpec(config=cfg, phases=phases, ranks=ranks, policy="no-remap")
    return api.run(spec).f


def solver_with_state(config, f):
    """A sequential solver carrying the assembled parallel state (for
    running the profile diagnostics on a parallel result)."""
    solver = MulticomponentLBM(config)
    solver.f[:] = f
    solver.update_moments_and_forces()
    return solver


class TestParallelBackends:
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_matches_sequential_bitwise(self, backend):
        cfg = small_config(backend)
        seq = MulticomponentLBM(cfg)
        seq.run(25)
        assert np.array_equal(static_f(cfg, 3, 25), seq.f)

    def test_fused_matches_reference(self):
        np.testing.assert_allclose(
            static_f(small_config("fused"), 3, 25),
            static_f(small_config("reference"), 3, 25),
            rtol=0.0,
            atol=1e-12,
        )

    def test_fused_survives_migration(self):
        """Plane migration resizes the slabs; the backend must be rebuilt
        with the new shapes and still match the sequential run bitwise."""
        cfg = small_config("fused")
        seq = MulticomponentLBM(cfg)
        seq.run(40)

        def slow_rank(rank, phase, points):
            t = points * 1e-6
            return t / 0.35 if rank == 1 else t

        result = api.run(
            api.RunSpec(
                config=cfg,
                phases=40,
                ranks=4,
                policy="filtered",
                remap_config=RemappingConfig(interval=5, history=5),
                load_time_fn=slow_rank,
            )
        )
        assert np.array_equal(result.f, seq.f)

    def test_identical_slip_profiles(self):
        profiles = {}
        for backend in ("reference", "fused"):
            cfg = small_config(backend)
            carrier = solver_with_state(cfg, static_f(cfg, 2, 60))
            profiles[backend] = velocity_profile(carrier)
        ref, fused = profiles["reference"], profiles["fused"]
        np.testing.assert_array_equal(ref.positions, fused.positions)
        np.testing.assert_allclose(
            fused.values, ref.values, rtol=0.0, atol=1e-12
        )
        assert slip_fraction(fused) == pytest.approx(
            slip_fraction(ref), abs=1e-9
        )


class TestFluidTailSites:
    """With walls on z only, the last sites of every x-plane — hence of
    every piece the overlapped schedule collides or takes moments of —
    are fluid, so nothing hides a BLAS product whose bits depend on
    where a piece ends (OpenBLAS rounds the last ``N mod 8`` columns
    differently).  Every other parallel test puts wall or ghost nodes
    there."""

    @staticmethod
    def config(shape):
        return LBMConfig(
            geometry=ChannelGeometry(shape=shape, wall_axes=(2,)),
            components=(
                ComponentSpec("water", tau=1.0, rho_init=1.0),
                ComponentSpec("air", tau=1.0, rho_init=0.03),
            ),
            g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
            lattice=D3Q19,
            body_acceleration=(2e-7, 0.0, 0.0),
            backend="fused",
        )

    # 60-column planes (60 % 8 == 4) trip the overlapped pieces; the
    # 420-point grid (420 % 8 == 4) also trips the blocking schedule,
    # whose full-slab products end elsewhere than the sequential one.
    @pytest.mark.parametrize("ranks", [2, 3])
    @pytest.mark.parametrize(
        "shape,halo_overlap",
        [((14, 5, 12), True), ((12, 6, 10), True), ((7, 5, 12), False)],
    )
    def test_fused_matches_sequential_bitwise(self, shape, halo_overlap, ranks):
        cfg = self.config(shape)
        seq = api.run(api.RunSpec(config=cfg, phases=30))
        par = api.run(
            api.RunSpec(
                config=cfg,
                phases=30,
                ranks=ranks,
                transport="threads",
                policy="no-remap",
                halo_overlap=halo_overlap,
            )
        )
        assert np.array_equal(par.f, seq.f)


class TestKernelPointCounts:
    def test_moments_points_count_the_pieces_not_the_slab(self):
        """The overlapped schedule takes moments on three x-slab pieces
        per phase through the rank's full-slab backend: the counter must
        add each piece's own points -- the interior, once per component
        and pass -- not the padded slab three times over."""
        from repro.obs import MemorySink, Observer

        cfg = dataclasses.replace(
            small_config("fused"),
            geometry=ChannelGeometry(shape=(32, 18), wall_axes=(1,)),
        )
        observer = Observer(sink=MemorySink())
        phases = 4
        api.run(
            api.RunSpec(
                config=cfg, phases=phases, ranks=2, transport="threads",
                policy="no-remap", halo_overlap=True, observer=observer,
            )
        )
        metrics = observer.sink.events[-1]["metrics"]
        # 4 phases plus the initial moment pass, C = 2 components.
        interior_updates = (phases + 1) * 2 * 32 * 18
        assert metrics["kernel.fused.moments.points"]["value"] == interior_updates
