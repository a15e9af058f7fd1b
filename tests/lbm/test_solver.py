import dataclasses

import numpy as np
import pytest

from repro.lbm.components import ComponentSpec
from repro.lbm.diagnostics import velocity_profile
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.scenarios import HomogeneousScenario


class TestConfigValidation:
    def test_lattice_dimension_must_match(self, channel_2d):
        with pytest.raises(ValueError, match="2-D"):
            LBMConfig(
                geometry=channel_2d,
                components=(ComponentSpec("w"),),
                g_matrix=np.zeros((1, 1)),
                lattice=D3Q19,
            )

    def test_duplicate_names_rejected(self, channel_2d):
        with pytest.raises(ValueError, match="duplicate"):
            LBMConfig(
                geometry=channel_2d,
                components=(ComponentSpec("w"), ComponentSpec("w")),
                g_matrix=np.zeros((2, 2)),
                lattice=D2Q9,
            )

    def test_wall_force_unknown_component(self, channel_2d):
        with pytest.raises(ValueError, match="unknown component"):
            LBMConfig(
                geometry=channel_2d,
                components=(ComponentSpec("w"),),
                g_matrix=np.zeros((1, 1)),
                lattice=D2Q9,
                wall_force=WallForceSpec(component="oil"),
            )

    def test_body_acceleration_length(self, channel_2d):
        with pytest.raises(ValueError, match="body_acceleration"):
            LBMConfig(
                geometry=channel_2d,
                components=(ComponentSpec("w"),),
                g_matrix=np.zeros((1, 1)),
                lattice=D2Q9,
                body_acceleration=(1e-5,),
            )

    def test_component_index(self, two_component_config):
        assert two_component_config.component_index("water") == 0
        assert two_component_config.component_index("air") == 1
        with pytest.raises(KeyError):
            two_component_config.component_index("oil")

    def test_empty_components_rejected(self, channel_2d):
        with pytest.raises(ValueError, match="at least one"):
            LBMConfig(
                geometry=channel_2d,
                components=(),
                g_matrix=np.zeros((0, 0)),
                lattice=D2Q9,
            )


class TestConfigReplace:
    """``LBMConfig.replace`` re-checks only what the changes can break:
    the result equals ``dataclasses.replace``'s, and a change that
    breaks a check still raises."""

    def test_equals_dataclasses_replace(self, two_component_config):
        base = dataclasses.replace(
            two_component_config,
            wall_force=None,
            scenario=HomogeneousScenario(amplitude=0.05),
        )
        changes = [
            {"scenario": HomogeneousScenario(amplitude=0.07)},
            {"body_acceleration": [3e-6, 0]},
            {"g_matrix": [[0.0, 0.5], [0.5, 0.0]]},
            {"scenario": None, "wall_force": WallForceSpec(amplitude=0.1)},
        ]
        for change in changes:
            fast, full = base.replace(**change), dataclasses.replace(base, **change)
            for name in ("geometry", "components", "lattice", "wall_force",
                         "body_acceleration", "adhesion", "scenario", "backend"):
                assert getattr(fast, name) == getattr(full, name), name
            assert np.array_equal(fast.g_matrix, full.g_matrix)
            assert not fast.g_matrix.flags.writeable
        assert base.replace().scenario is base.scenario

    def test_broken_changes_still_raise(self, two_component_config):
        cfg = two_component_config
        with pytest.raises(ValueError, match="symmetric"):
            cfg.replace(g_matrix=np.array([[0.0, 0.5], [0.4, 0.0]]))
        with pytest.raises(ValueError, match="entries"):
            cfg.replace(body_acceleration=(1e-6,))
        with pytest.raises(ValueError, match="not both"):
            cfg.replace(scenario=HomogeneousScenario())
        with pytest.raises(ValueError, match="unknown component"):
            cfg.replace(wall_force=None, scenario=HomogeneousScenario(component="oil"))
        with pytest.raises(TypeError, match="no fields"):
            cfg.replace(amplitude=0.1)


class TestInitialization:
    def test_initial_density_uniform_on_fluid(self, small_solver):
        fluid = small_solver.fluid
        assert np.allclose(small_solver.rho[0][fluid], 1.0)
        assert np.allclose(small_solver.rho[1][fluid], 0.03)

    def test_solid_nodes_empty(self, small_solver):
        solid = small_solver.solid
        assert np.allclose(small_solver.rho[:, solid], 0.0)

    def test_initially_at_rest(self, small_solver):
        # Momentum of the populations is zero at t = 0; the *physical*
        # velocity already includes the half-force correction of the wall
        # forces, so it is not (u = F/(2 rho) at the wall layer).
        assert np.allclose(small_solver.mom, 0.0, atol=1e-15)

    def test_initial_velocity_zero_without_forces(self, channel_2d):
        cfg = LBMConfig(
            geometry=channel_2d,
            components=(ComponentSpec("w"),),
            g_matrix=np.zeros((1, 1)),
            lattice=D2Q9,
        )
        solver = MulticomponentLBM(cfg)
        u = solver.velocity()
        assert np.allclose(u[:, solver.fluid], 0.0, atol=1e-15)


class TestConservation:
    def test_mass_conserved_per_component(self, small_solver):
        m0 = [small_solver.total_mass(0), small_solver.total_mass(1)]
        small_solver.run(50)
        assert small_solver.total_mass(0) == pytest.approx(m0[0], rel=1e-12)
        assert small_solver.total_mass(1) == pytest.approx(m0[1], rel=1e-12)

    def test_mass_conserved_3d(self, two_component_config_3d):
        solver = MulticomponentLBM(two_component_config_3d)
        m0 = solver.total_mass()
        solver.run(20)
        assert solver.total_mass() == pytest.approx(m0, rel=1e-12)

    def test_no_streamwise_flow_without_forces(self, channel_2d):
        """The wall-initialization transient excites sound waves across the
        channel (u_y), but x-symmetry keeps the streamwise velocity at
        exactly zero without a driving force."""
        cfg = LBMConfig(
            geometry=channel_2d,
            components=(ComponentSpec("w"),),
            g_matrix=np.zeros((1, 1)),
            lattice=D2Q9,
        )
        solver = MulticomponentLBM(cfg)
        solver.run(30)
        u = solver.velocity()
        assert np.allclose(u[0][solver.fluid], 0.0, atol=1e-14)

    def test_initial_transient_decays(self, channel_2d):
        cfg = LBMConfig(
            geometry=channel_2d,
            components=(ComponentSpec("w"),),
            g_matrix=np.zeros((1, 1)),
            lattice=D2Q9,
        )
        solver = MulticomponentLBM(cfg)
        solver.run(20)
        early = np.abs(solver.velocity()[1][solver.fluid]).max()
        solver.run(800)
        late = np.abs(solver.velocity()[1][solver.fluid]).max()
        assert late < 0.1 * early


class TestFlowDevelopment:
    def test_body_force_drives_flow(self, single_component_config):
        solver = MulticomponentLBM(single_component_config)
        solver.run(200)
        assert solver.velocity()[0][solver.fluid].mean() > 0

    def test_poiseuille_profile(self):
        geo = ChannelGeometry(shape=(8, 22), wall_axes=(1,))
        comp = ComponentSpec("w", tau=1.0)
        accel = 1e-5
        cfg = LBMConfig(
            geometry=geo,
            components=(comp,),
            g_matrix=np.zeros((1, 1)),
            lattice=D2Q9,
            body_acceleration=(accel, 0.0),
        )
        solver = MulticomponentLBM(cfg)
        solver.run(2500)
        prof = velocity_profile(solver)
        width = geo.channel_width(1)
        analytic = accel / (2 * comp.viscosity) * prof.positions * (
            width - prof.positions
        )
        err = np.abs(prof.values - analytic).max() / analytic.max()
        assert err < 0.02

    def test_profile_symmetric(self, single_component_config):
        solver = MulticomponentLBM(single_component_config)
        solver.run(400)
        prof = velocity_profile(solver)
        assert np.allclose(prof.values, prof.values[::-1], rtol=1e-6)


class TestHealthCheck:
    def test_healthy_run_passes(self, small_solver):
        small_solver.run(10, check_interval=5)

    def test_nan_detected(self, small_solver):
        small_solver.f[0, 0, 3, 3] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            small_solver.check_health()

    def test_runaway_velocity_detected(self, small_solver):
        small_solver.run(1)
        # Corrupt momentum grossly on a fluid node.
        k = next(
            i for i in range(D2Q9.Q) if np.array_equal(D2Q9.c[i], [1, 0])
        )
        small_solver.f[0, k, 5, 5] += 100.0
        small_solver.update_moments_and_forces()
        with pytest.raises(FloatingPointError, match="velocity"):
            small_solver.check_health()

    def test_negative_steps_rejected(self, small_solver):
        with pytest.raises(ValueError):
            small_solver.run(-1)


class TestCallbacks:
    def test_callback_called_each_step(self, small_solver):
        seen = []
        small_solver.run(5, callback=lambda s: seen.append(s.step_count))
        assert seen == [1, 2, 3, 4, 5]

    def test_step_count_advances(self, small_solver):
        small_solver.run(7)
        assert small_solver.step_count == 7


class TestWallForceEffect:
    def test_water_depleted_at_wall(self, two_component_config):
        solver = MulticomponentLBM(two_component_config)
        solver.run(400)
        from repro.lbm.diagnostics import density_profile

        water = density_profile(solver, "water")
        mid = water.values[len(water.values) // 2]
        assert water.values[0] < mid  # depleted near wall

    def test_air_enriched_at_wall(self, two_component_config):
        solver = MulticomponentLBM(two_component_config)
        solver.run(400)
        from repro.lbm.diagnostics import density_profile

        air = density_profile(solver, "air")
        mid = air.values[len(air.values) // 2]
        assert air.values[0] > mid  # enriched near wall
