import numpy as np
import pytest

from repro.lbm.diagnostics import (
    Profile,
    apparent_slip_fraction,
    density_profile,
    normalized_velocity_profile,
    slip_fraction,
    velocity_profile,
)


def parabola_profile(width=40.0, n=40, slip=0.0):
    """Synthetic Poiseuille profile with an optional uniform slip offset."""
    d = np.arange(n) + 0.5
    u = d * (width - d) + slip * (width / 2) ** 2
    return Profile(positions=d, values=u)


class TestProfile:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Profile(np.arange(3.0), np.arange(4.0))

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            Profile(np.array([1.0, 0.5]), np.array([0.0, 0.0]))

    def test_near_wall_restriction(self):
        prof = parabola_profile()
        strip = prof.near_wall(5.0)
        assert strip.positions.max() <= 5.0
        assert strip.positions.size == 5


class TestSlipFraction:
    def test_no_slip_parabola_near_zero(self):
        prof = parabola_profile()
        assert abs(slip_fraction(prof)) < 0.01

    def test_uniform_slip_detected(self):
        prof = parabola_profile(slip=0.1)
        assert slip_fraction(prof) == pytest.approx(0.1, rel=0.1)

    def test_short_profile_rejected(self):
        prof = Profile(np.array([0.5, 1.5]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="too short"):
            slip_fraction(prof)

    def test_zero_velocity_rejected(self):
        prof = Profile(np.arange(5) + 0.5, np.zeros(5))
        with pytest.raises(ValueError, match="zero"):
            slip_fraction(prof)


class TestApparentSlipFraction:
    def test_pure_parabola_near_zero(self):
        prof = parabola_profile()
        assert abs(apparent_slip_fraction(prof)) < 0.01

    def test_slip_parabola_detected(self):
        prof = parabola_profile(slip=0.15)
        measured = apparent_slip_fraction(prof)
        assert measured == pytest.approx(0.15 / 1.15, rel=0.05)

    def test_boundary_layer_excluded(self):
        """Distortion confined to the near-wall layer must not change the
        bulk-fit result."""
        prof = parabola_profile()
        distorted = prof.values.copy()
        distorted[:3] *= 0.1
        prof2 = Profile(prof.positions, distorted)
        assert apparent_slip_fraction(prof2) == pytest.approx(
            apparent_slip_fraction(prof), abs=1e-9
        )

    def test_too_few_core_points(self):
        prof = parabola_profile(n=12, width=12.0)
        with pytest.raises(ValueError, match="core"):
            apparent_slip_fraction(prof, boundary_layer=5.0)

    def test_non_concave_rejected(self):
        d = np.arange(40) + 0.5
        prof = Profile(d, d**2)  # convex
        with pytest.raises(ValueError, match="concave"):
            apparent_slip_fraction(prof)


class TestSolverProfiles:
    def test_density_profile_positions(self, small_solver):
        prof = density_profile(small_solver, "water")
        assert prof.positions[0] == 0.5
        assert (np.diff(prof.positions) > 0).all()
        assert prof.positions.size == 16  # 18 - 2 wall nodes

    def test_unknown_component(self, small_solver):
        with pytest.raises(KeyError):
            density_profile(small_solver, "oil")

    def test_velocity_profile_axis_validation(self, small_solver):
        with pytest.raises(ValueError):
            velocity_profile(small_solver, axis=0)

    def test_normalized_profile_needs_flow(self, single_component_config):
        from repro.lbm.solver import LBMConfig, MulticomponentLBM
        from dataclasses import replace

        # No forces at all -> velocity is exactly zero at t = 0.
        cfg = replace(
            single_component_config, body_acceleration=None, wall_force=None
        )
        solver = MulticomponentLBM(cfg)
        with pytest.raises(ValueError, match="zero velocity"):
            normalized_velocity_profile(solver)

    def test_normalized_profile_max_is_one(self, small_solver):
        small_solver.run(200)
        prof = normalized_velocity_profile(small_solver)
        assert prof.values.max() == pytest.approx(1.0)

    def test_mean_flow_velocity_sign(self, small_solver):
        small_solver.run(200)
        u = small_solver.velocity()[0]
        assert u[small_solver.fluid].mean() > 0

    def test_3d_cross_section_defaults(self, two_component_config_3d):
        from repro.lbm.solver import MulticomponentLBM

        solver = MulticomponentLBM(two_component_config_3d)
        prof = density_profile(solver, "water", axis=1)
        assert prof.positions.size == solver.config.geometry.shape[1] - 2
        prof_z = density_profile(solver, "water", axis=2)
        assert prof_z.positions.size == solver.config.geometry.shape[2] - 2
