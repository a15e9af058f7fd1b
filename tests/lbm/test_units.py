import pytest

from repro.lbm.units import (
    PAPER_CHANNEL_SIZE,
    PAPER_GRID_SHAPE,
    PAPER_UNITS,
    UnitSystem,
    paper_unit_system,
)


class TestUnitSystem:
    def test_length_round_trip(self):
        us = UnitSystem(dx=5e-9, dt=1e-9, rho0=1000.0)
        assert us.to_lattice_length(us.length(3.0)) == pytest.approx(3.0)

    def test_water_density_gcc(self):
        # 1 lattice density unit = water = 1 g/cm^3 under the paper scaling.
        assert PAPER_UNITS.density_gcc(1.0) == pytest.approx(1.0)

    def test_velocity_scale(self):
        us = UnitSystem(dx=2.0, dt=4.0, rho0=1.0)
        assert us.velocity(1.0) == pytest.approx(0.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UnitSystem(dx=0.0, dt=1.0, rho0=1.0)


class TestPaperConstants:
    def test_grid_matches_channel(self):
        """400 x 200 x 20 at 5 nm spacing = 2 x 1 x 0.1 micron."""
        for n, size in zip(PAPER_GRID_SHAPE, PAPER_CHANNEL_SIZE):
            assert n * PAPER_UNITS.dx == pytest.approx(size)

    def test_paper_unit_system_dx(self):
        assert paper_unit_system().dx == pytest.approx(5e-9)

    def test_time_conversion(self):
        us = paper_unit_system(dt=2e-9)
        assert us.time(10) == pytest.approx(2e-8)
