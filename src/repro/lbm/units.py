"""Lattice <-> physical unit conversion.

The paper simulates a 2.0 x 1.0 x 0.1 micron channel on a 400 x 200 x 20
grid, i.e. a grid spacing of 5 nm, and reports densities in g/cm^3 and the
wall-force decay length of 12.5 nm.  :data:`PAPER_UNITS` encodes exactly
that scaling; scaled-down runs construct their own :class:`UnitSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True)
class UnitSystem:
    """Conversion factors between lattice units and SI.

    Attributes
    ----------
    dx:
        Physical size of one lattice spacing [m].
    dt:
        Physical duration of one time step [s].
    rho0:
        Physical density of one lattice density unit [kg/m^3].
    """

    dx: float
    dt: float
    rho0: float

    def __post_init__(self) -> None:
        check_positive(self.dx, "dx")
        check_positive(self.dt, "dt")
        check_positive(self.rho0, "rho0")

    # --- lattice -> physical -------------------------------------------------
    def length(self, lattice_length: float) -> float:
        """Lattice length -> meters."""
        return lattice_length * self.dx

    def time(self, lattice_time: float) -> float:
        """Lattice time -> seconds."""
        return lattice_time * self.dt

    def velocity(self, lattice_velocity: float) -> float:
        """Lattice velocity -> m/s."""
        return lattice_velocity * self.dx / self.dt

    def density(self, lattice_density: float) -> float:
        """Lattice density -> kg/m^3."""
        return lattice_density * self.rho0

    def density_gcc(self, lattice_density: float) -> float:
        """Lattice density -> g/cm^3 (the unit of the paper's Figure 6)."""
        return self.density(lattice_density) / 1000.0

    # --- physical -> lattice -------------------------------------------------
    def to_lattice_length(self, meters: float) -> float:
        """Meters -> lattice spacings."""
        return meters / self.dx


def paper_unit_system(*, dt: float = 1.0e-9) -> UnitSystem:
    """The paper's scaling: dx = 5 nm, water (1000 kg/m^3) = 1 lattice
    density unit.  dt is chosen so lattice velocities stay small; the paper
    does not report its time step, so we default to 1 ns."""
    return UnitSystem(dx=5.0e-9, dt=dt, rho0=1000.0)


PAPER_UNITS = paper_unit_system()

#: The paper's grid for the 2.0 x 1.0 x 0.1 micron channel at 5 nm spacing.
PAPER_GRID_SHAPE = (400, 200, 20)

#: Channel physical dimensions [m] (length, width, depth) from Figure 5.
PAPER_CHANNEL_SIZE = (2.0e-6, 1.0e-6, 0.1e-6)

#: Wall-force decay length from Section 4 [m].
PAPER_DECAY_LENGTH = 12.5e-9
