import numpy as np
import pytest

from repro.lbm.geometry import ChannelGeometry


class TestConstruction:
    def test_default_wall_axes_3d(self):
        geo = ChannelGeometry(shape=(10, 8, 6))
        assert geo.wall_axes == (1, 2)

    def test_explicit_wall_axes(self):
        geo = ChannelGeometry(shape=(10, 8), wall_axes=(1,))
        assert geo.wall_axes == (1,)

    def test_axis_zero_rejected(self):
        with pytest.raises(ValueError, match="periodic"):
            ChannelGeometry(shape=(10, 8), wall_axes=(0,))

    def test_too_thin_channel_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            ChannelGeometry(shape=(10, 3), wall_axes=(1,))

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            ChannelGeometry(shape=(10,))

    def test_thickness_validated(self):
        with pytest.raises(ValueError):
            ChannelGeometry(shape=(10, 8), wall_axes=(1,), wall_thickness=0)


class TestMasks:
    def test_solid_at_walls_only(self):
        geo = ChannelGeometry(shape=(6, 8), wall_axes=(1,))
        solid = geo.solid_mask()
        assert solid[:, 0].all()
        assert solid[:, -1].all()
        assert not solid[:, 1:-1].any()

    def test_fluid_complements_solid(self):
        geo = ChannelGeometry(shape=(6, 8, 5))
        assert np.array_equal(geo.fluid_mask(), ~geo.solid_mask())

    def test_3d_duct_walls(self):
        geo = ChannelGeometry(shape=(4, 6, 5))
        solid = geo.solid_mask()
        assert solid[:, 0, :].all()
        assert solid[:, :, 0].all()
        assert not solid[:, 2, 2].any()

    def test_thickness_two(self):
        geo = ChannelGeometry(shape=(4, 10), wall_axes=(1,), wall_thickness=2)
        solid = geo.solid_mask()
        assert solid[:, :2].all() and solid[:, -2:].all()
        assert not solid[:, 2:-2].any()


class TestDistances:
    def test_wall_coordinate_monotone(self):
        geo = ChannelGeometry(shape=(4, 8), wall_axes=(1,))
        coord = geo.wall_coordinate(1)[0]
        assert (np.diff(coord) > 0).all()
        assert coord[1] == 0.5

    def test_channel_width(self):
        geo = ChannelGeometry(shape=(4, 34), wall_axes=(1,))
        assert geo.channel_width(1) == 32.0

    def test_coordinate_spans_width(self):
        geo = ChannelGeometry(shape=(4, 12), wall_axes=(1,))
        coord = geo.wall_coordinate(1)[0]
        width = geo.channel_width(1)
        assert coord[-2] == width - 0.5

    def test_invalid_axis(self):
        geo = ChannelGeometry(shape=(4, 8), wall_axes=(1,))
        with pytest.raises(ValueError):
            geo.wall_coordinate(0)


class TestNormals:
    def test_centerline_index(self):
        geo = ChannelGeometry(shape=(10, 8), wall_axes=(1,))
        assert geo.centerline_index(0) == 5
        assert geo.centerline_index(1) == 4
