import numpy as np
import pytest

from repro.lbm.equilibrium import equilibrium, rest_equilibrium
from repro.lbm.lattice import D2Q9, D3Q19


def random_fields(lattice, shape, seed=0, umax=0.05):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 1.5, shape)
    u = rng.uniform(-umax, umax, (lattice.D, *shape))
    return rho, u


class TestMoments:
    @pytest.mark.parametrize("lattice,shape", [(D2Q9, (6, 5)), (D3Q19, (4, 3, 3))])
    def test_zeroth_moment_is_density(self, lattice, shape):
        rho, u = random_fields(lattice, shape)
        feq = equilibrium(rho, u, lattice)
        assert np.allclose(feq.sum(axis=0), rho)

    @pytest.mark.parametrize("lattice,shape", [(D2Q9, (6, 5)), (D3Q19, (4, 3, 3))])
    def test_first_moment_is_momentum(self, lattice, shape):
        rho, u = random_fields(lattice, shape)
        feq = equilibrium(rho, u, lattice)
        mom = np.tensordot(lattice.c.astype(float).T, feq, axes=([1], [0]))
        assert np.allclose(mom, rho * u)

    def test_rest_state_weights(self):
        rho = np.ones((4, 4))
        u = np.zeros((2, 4, 4))
        feq = equilibrium(rho, u, D2Q9)
        for k in range(D2Q9.Q):
            assert np.allclose(feq[k], D2Q9.w[k])

    def test_second_moment_at_rest(self):
        # Pi_ab = cs2 rho delta_ab at u=0.
        rho = np.full((3, 3), 1.3)
        feq = equilibrium(rho, np.zeros((2, 3, 3)), D2Q9)
        c = D2Q9.c.astype(float)
        pi = np.einsum("k...,ka,kb->ab...", feq, c, c)
        for a in range(2):
            for b in range(2):
                expect = D2Q9.cs2 * rho if a == b else 0.0
                assert np.allclose(pi[a, b], expect)


class TestOutParameter:
    def test_out_reused(self):
        rho = np.ones((5, 5))
        u = np.zeros((2, 5, 5))
        out = np.empty((9, 5, 5))
        result = equilibrium(rho, u, D2Q9, out=out)
        assert result is out

    def test_out_wrong_shape_rejected(self):
        rho = np.ones((5, 5))
        u = np.zeros((2, 5, 5))
        with pytest.raises(ValueError, match="out"):
            equilibrium(rho, u, D2Q9, out=np.empty((9, 4, 5)))

    def test_out_matches_fresh(self):
        rho, u = random_fields(D2Q9, (6, 4), seed=3)
        fresh = equilibrium(rho, u, D2Q9)
        reused = equilibrium(rho, u, D2Q9, out=np.empty_like(fresh))
        assert np.array_equal(fresh, reused)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="leading dimension"):
            equilibrium(np.ones((4, 4)), np.zeros((3, 4, 4)), D2Q9)

    def test_spatial_mismatch(self):
        with pytest.raises(ValueError, match="spatial"):
            equilibrium(np.ones((4, 4)), np.zeros((2, 5, 4)), D2Q9)


class TestPositivity:
    def test_positive_at_moderate_velocity(self):
        rho = np.ones((3, 3))
        u = np.full((2, 3, 3), 0.05)
        assert (equilibrium(rho, u, D2Q9) > 0).all()


class TestRestEquilibrium:
    """Every solver starts from ``rest_equilibrium``; it must hand every
    backend the bits the general formula gives at u = 0."""

    @pytest.mark.parametrize("lattice,shape", [(D2Q9, (6, 5)), (D3Q19, (4, 3, 3))])
    def test_bit_equal_to_equilibrium_at_zero_velocity(self, lattice, shape):
        rho, _ = random_fields(lattice, shape)
        rho[0] = 0.0  # solid nodes start empty
        out = np.full((lattice.Q, *shape), np.nan)
        assert rest_equilibrium(rho, lattice, out) is out
        expected = equilibrium(rho, np.zeros((lattice.D, *shape)), lattice)
        assert np.array_equal(out, expected)

    def test_out_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="out has shape"):
            rest_equilibrium(np.ones((4, 4)), D2Q9, np.empty((9, 4, 5)))
