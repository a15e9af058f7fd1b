import numpy as np
import pytest

from repro.lbm.equilibrium import equilibrium
from repro.lbm.lattice import D2Q9
from repro.lbm.macroscopic import (
    common_velocity,
    component_density,
    component_momentum,
    mixture_velocity,
)


def equilibrium_state(rho_val, u_val, shape=(4, 4)):
    rho = np.full(shape, rho_val)
    u = np.zeros((2, *shape))
    u[0] = u_val
    return equilibrium(rho, u, D2Q9)


class TestComponentMoments:
    def test_density(self):
        f = equilibrium_state(1.3, 0.02)
        assert np.allclose(component_density(f), 1.3)

    def test_density_with_mass(self):
        f = equilibrium_state(1.0, 0.0)
        assert np.allclose(component_density(f, mass=2.5), 2.5)

    def test_momentum(self):
        f = equilibrium_state(1.2, 0.03)
        mom = component_momentum(f, D2Q9)
        assert np.allclose(mom[0], 1.2 * 0.03)
        assert np.allclose(mom[1], 0.0)

    def test_momentum_with_mass(self):
        f = equilibrium_state(1.0, 0.01)
        mom = component_momentum(f, D2Q9, mass=3.0)
        assert np.allclose(mom[0], 3.0 * 0.01)


class TestCommonVelocity:
    def test_equal_taus_is_mass_weighted(self):
        shape = (3, 3)
        rhos = np.stack([np.full(shape, 1.0), np.full(shape, 3.0)])
        momenta = np.zeros((2, 2, *shape))
        momenta[0, 0] = 1.0 * 0.1
        momenta[1, 0] = 3.0 * 0.02
        u = common_velocity(rhos, momenta, np.array([1.0, 1.0]))
        expected = (0.1 + 3 * 0.02) / 4.0
        assert np.allclose(u[0], expected)

    def test_tau_weighting(self):
        shape = (2, 2)
        rhos = np.stack([np.ones(shape), np.ones(shape)])
        momenta = np.zeros((2, 2, *shape))
        momenta[0, 0] = 0.1  # component 0 moving
        u_fast0 = common_velocity(rhos, momenta, np.array([0.6, 2.0]))
        u_slow0 = common_velocity(rhos, momenta, np.array([2.0, 0.6]))
        # The component with smaller tau dominates u'.
        assert u_fast0[0].mean() > u_slow0[0].mean()

    def test_vacuum_nodes_finite(self):
        shape = (2, 2)
        rhos = np.zeros((1, *shape))
        momenta = np.zeros((1, 2, *shape))
        u = common_velocity(rhos, momenta, np.array([1.0]))
        assert np.isfinite(u).all()

    def test_tau_shape_checked(self):
        with pytest.raises(ValueError):
            common_velocity(
                np.ones((2, 3, 3)), np.zeros((2, 2, 3, 3)), np.array([1.0])
            )


class TestMixtureVelocity:
    def test_half_force_correction(self):
        shape = (2, 2)
        rhos = np.ones((1, *shape))
        momenta = np.zeros((1, 2, *shape))
        forces = np.zeros((1, 2, *shape))
        forces[0, 0] = 0.02
        u = mixture_velocity(rhos, momenta, forces)
        assert np.allclose(u[0], 0.01)

    def test_mass_weighted_average(self):
        shape = (2, 2)
        rhos = np.stack([np.full(shape, 1.0), np.full(shape, 1.0)])
        momenta = np.zeros((2, 2, *shape))
        momenta[0, 0] = 0.1
        u = mixture_velocity(rhos, momenta, np.zeros_like(momenta))
        assert np.allclose(u[0], 0.05)
