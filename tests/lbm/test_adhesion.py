import numpy as np
import pytest

from repro.lbm.adhesion import (
    contact_density_ratio,
    wall_indicator_field,
)
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig, MulticomponentLBM


class TestWallIndicatorField:
    def test_supported_on_first_fluid_layer_only(self):
        geo = ChannelGeometry(shape=(6, 12), wall_axes=(1,))
        field = wall_indicator_field(geo, D2Q9)
        # Nonzero at y=1 and y=10 (fluid nodes touching walls), zero deeper.
        assert np.abs(field[1, :, 1]).max() > 0
        assert np.abs(field[1, :, 10]).max() > 0
        assert np.allclose(field[:, :, 3:9], 0.0)

    def test_points_toward_wall(self):
        geo = ChannelGeometry(shape=(6, 12), wall_axes=(1,))
        field = wall_indicator_field(geo, D2Q9)
        assert (field[1, :, 1] < 0).all()  # low wall below: -y
        assert (field[1, :, 10] > 0).all()  # high wall above: +y

    def test_zero_on_solid(self):
        geo = ChannelGeometry(shape=(6, 12), wall_axes=(1,))
        field = wall_indicator_field(geo, D2Q9)
        assert np.allclose(field[:, :, 0], 0.0)
        assert np.allclose(field[:, :, -1], 0.0)

    def test_3d_both_wall_pairs(self):
        geo = ChannelGeometry(shape=(5, 8, 7))
        field = wall_indicator_field(geo, D3Q19)
        assert np.abs(field[1]).max() > 0
        assert np.abs(field[2]).max() > 0
        assert np.allclose(field[0], 0.0)  # no walls along x


class TestSolverIntegration:
    def run_channel(self, g_ads_water):
        geo = ChannelGeometry(shape=(12, 26), wall_axes=(1,))
        comps = (
            ComponentSpec("water", rho_init=1.0),
            ComponentSpec("air", rho_init=0.03),
        )
        cfg = LBMConfig(
            geometry=geo,
            components=comps,
            g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
            lattice=D2Q9,
            adhesion=(g_ads_water, 0.0),
        )
        solver = MulticomponentLBM(cfg)
        solver.run(1200, check_interval=300)
        return solver, geo

    def test_repulsion_depletes_water_at_wall(self):
        solver, geo = self.run_channel(0.3)
        assert contact_density_ratio(solver.rho[0], geo) < 0.95

    def test_attraction_enriches_water_at_wall(self):
        solver, geo = self.run_channel(-0.3)
        assert contact_density_ratio(solver.rho[0], geo) > 1.02

    def test_monotone_in_coupling(self):
        ratios = [
            contact_density_ratio(self.run_channel(g)[0].rho[0],
                                  ChannelGeometry(shape=(12, 26), wall_axes=(1,)))
            for g in (-0.2, 0.0, 0.2)
        ]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_mass_still_conserved(self):
        solver, _ = self.run_channel(0.3)
        expected = 1.0 * 12 * 24 + 0.03 * 12 * 24
        assert solver.total_mass() == pytest.approx(expected, rel=1e-10)

    def test_adhesion_length_validated(self):
        geo = ChannelGeometry(shape=(12, 26), wall_axes=(1,))
        with pytest.raises(ValueError, match="adhesion"):
            LBMConfig(
                geometry=geo,
                components=(ComponentSpec("w"),),
                g_matrix=np.zeros((1, 1)),
                lattice=D2Q9,
                adhesion=(0.1, 0.2),
            )


class TestContactDensityRatio:
    def test_uniform_field_is_one(self):
        geo = ChannelGeometry(shape=(6, 12), wall_axes=(1,))
        rho = np.ones(geo.shape)
        assert contact_density_ratio(rho, geo) == pytest.approx(1.0)

    def test_zero_center_rejected(self):
        geo = ChannelGeometry(shape=(6, 12), wall_axes=(1,))
        with pytest.raises(ValueError):
            contact_density_ratio(np.zeros(geo.shape), geo)
