"""Lattice Boltzmann substrate: multicomponent Shan-Chen LBM with
hydrophobic wall forces, as used by the paper's fluid-slip simulation.

The package is organised as small, dimension-agnostic numpy kernels
(:mod:`repro.lbm.streaming`, :mod:`repro.lbm.shan_chen`, ...) composed by a
single-process solver (:class:`repro.lbm.solver.MulticomponentLBM`).  The
parallel driver in :mod:`repro.parallel` reuses the same kernels on x-slabs
with ghost planes.
"""

from repro.lbm.analytic import (
    navier_slip_poiseuille,
    poiseuille_velocity,
    slip_fraction_to_slip_length,
    slip_length_to_slip_fraction,
    taylor_green_velocity,
)
from repro.lbm.adhesion import contact_density_ratio, wall_indicator_field
from repro.lbm.lattice import Lattice, D2Q9, D3Q19
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.forces import WallForceSpec
from repro.lbm.solver import LBMConfig, MulticomponentLBM
from repro.lbm.units import UnitSystem, PAPER_UNITS
from repro.lbm.diagnostics import (
    Profile,
    apparent_slip_fraction,
    density_profile,
    effective_slip_fraction,
    normalized_velocity_profile,
    slip_fraction,
    streamwise_slip_profile,
    streamwise_velocity_profiles,
    velocity_profile,
)

__all__ = [
    "Lattice",
    "D2Q9",
    "D3Q19",
    "ComponentSpec",
    "ChannelGeometry",
    "WallForceSpec",
    "LBMConfig",
    "MulticomponentLBM",
    "UnitSystem",
    "PAPER_UNITS",
    "navier_slip_poiseuille",
    "poiseuille_velocity",
    "slip_fraction_to_slip_length",
    "slip_length_to_slip_fraction",
    "taylor_green_velocity",
    "contact_density_ratio",
    "wall_indicator_field",
    "Profile",
    "apparent_slip_fraction",
    "density_profile",
    "effective_slip_fraction",
    "normalized_velocity_profile",
    "slip_fraction",
    "streamwise_slip_profile",
    "streamwise_velocity_profiles",
    "velocity_profile",
]
