"""Physics assertions for Figures 6/7 using the fast (2-D) scenario —
the claims the paper's simulation section makes."""

import numpy as np
import pytest

from repro.experiments import fig6_density, fig7_velocity
from repro.api import run_batch
from repro.experiments.channel import FAST, slip_pair
from repro.lbm.diagnostics import (
    apparent_slip_fraction,
    density_profile,
    velocity_profile,
)


@pytest.fixture(scope="module")
def pair():
    return [result.solver() for result in run_batch(slip_pair(*FAST))]


class TestDensities:
    def test_water_depleted_at_wall(self, pair):
        forced, _ = pair
        water = density_profile(forced, "water")
        bulk = np.median(water.values)
        assert water.values[0] < 0.8 * bulk

    def test_air_enriched_at_wall(self, pair):
        forced, _ = pair
        air = density_profile(forced, "air")
        bulk = np.median(air.values)
        assert air.values[0] > 1.5 * bulk

    def test_control_stays_uniform(self, pair):
        _, control = pair
        water = density_profile(control, "water")
        assert water.values[0] > 0.9 * np.median(water.values)

    def test_depletion_monotone_toward_wall(self, pair):
        forced, _ = pair
        water = density_profile(forced, "water").near_wall(6.0)
        assert (np.diff(water.values) > 0).all()  # rises away from wall


class TestSlip:
    def test_apparent_slip_with_forces(self, pair):
        forced, _ = pair
        slip = apparent_slip_fraction(velocity_profile(forced))
        assert 0.05 < slip < 0.35  # paper: ~10%

    def test_control_no_slip(self, pair):
        _, control = pair
        slip = apparent_slip_fraction(velocity_profile(control))
        assert abs(slip) < 0.03

    def test_forced_flow_faster_near_wall(self, pair):
        forced, control = pair
        uf = velocity_profile(forced)
        uc = velocity_profile(control)
        # Normalized near-wall velocity is higher with the wall force.
        assert uf.values[1] / uf.values.max() > uc.values[1] / uc.values.max()


class TestReports:
    def test_fig6_report(self, pair):
        report = fig6_density.report(*pair)
        assert report.data["water_depletion_ratio"] < 0.85
        assert report.data["air_enrichment_ratio"] > 1.5
        assert "rho_water" in report.text

    def test_fig7_report(self, pair):
        report = fig7_velocity.report(*pair)
        assert report.data["slip_forced"] > report.data["slip_control"]
        assert report.data["bulk_slip_forced"] > 0.05
        assert abs(report.data["bulk_slip_control"]) < 0.03

