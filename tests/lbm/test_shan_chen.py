import numpy as np
import pytest

from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.shan_chen import (
    interaction_force,
    shifted_psi_sum,
    validate_g_matrix,
)


class TestGMatrix:
    def test_valid(self):
        g = validate_g_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        assert g.shape == (2, 2)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            validate_g_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]), 2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            validate_g_matrix(np.zeros((2, 2)), 3)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            validate_g_matrix(np.array([[np.nan]]), 1)


class TestShiftedPsiSum:
    def test_zero_for_uniform_field(self):
        psi = np.ones((6, 6))
        grad = shifted_psi_sum(psi, D2Q9)
        assert np.allclose(grad, 0.0)

    def test_approximates_gradient(self):
        # psi = sin(2 pi x / N): lattice gradient ~ cs2 * dpsi/dx.
        n = 64
        x = np.arange(n)
        psi = np.sin(2 * np.pi * x / n)[:, None] * np.ones((1, 4))
        grad = shifted_psi_sum(psi, D2Q9)
        expected = D2Q9.cs2 * (2 * np.pi / n) * np.cos(2 * np.pi * x / n)
        assert np.allclose(grad[0, :, 0], expected, atol=1e-3)
        assert np.allclose(grad[1], 0.0, atol=1e-12)

    def test_3d_shape(self):
        psi = np.random.default_rng(0).random((4, 5, 6))
        grad = shifted_psi_sum(psi, D3Q19)
        assert grad.shape == (3, 4, 5, 6)


class TestInteractionForce:
    def test_shape(self):
        psis = np.random.default_rng(0).random((2, 5, 5))
        g = np.array([[0.0, 0.9], [0.9, 0.0]])
        forces = interaction_force(psis, g, D2Q9)
        assert forces.shape == (2, 2, 5, 5)

    def test_zero_coupling_zero_force(self):
        psis = np.random.default_rng(1).random((2, 5, 5))
        forces = interaction_force(psis, np.zeros((2, 2)), D2Q9)
        assert not forces.any()

    def test_uniform_mixture_zero_force(self):
        psis = np.stack([np.full((5, 5), 1.0), np.full((5, 5), 0.03)])
        g = np.array([[0.0, 0.9], [0.9, 0.0]])
        forces = interaction_force(psis, g, D2Q9)
        assert np.allclose(forces, 0.0)

    def test_momentum_exchange_balances(self):
        """Newton's third law: total interaction momentum change sums to ~0
        over a periodic domain."""
        rng = np.random.default_rng(2)
        psis = rng.random((2, 8, 8))
        g = np.array([[0.1, 0.9], [0.9, 0.2]])
        forces = interaction_force(psis, g, D2Q9)
        total = forces.sum(axis=(0, 2, 3))
        assert np.allclose(total, 0.0, atol=1e-10)

    def test_repulsion_pushes_apart(self):
        """With g > 0 between components, component 2 concentrated at a
        spot pushes component 1 away from that spot."""
        psis = np.zeros((2, 9, 9))
        psis[0] = 1.0
        psis[1, 4, 4] = 1.0
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        forces = interaction_force(psis, g, D2Q9)
        # Force on component 0 at (3, 4) should point in -x (away from 4,4).
        assert forces[0, 0, 3, 4] < 0
        assert forces[0, 0, 5, 4] > 0

    def test_no_per_call_validation(self):
        """Validation is hoisted out of the per-step hot path: callers
        (``LBMConfig`` / backend construction) run ``validate_g_matrix``
        once; ``interaction_force`` itself uses the matrix as given."""
        psis = np.ones((2, 4, 4))
        asym = np.array([[0.0, 1.0], [0.5, 0.0]])
        forces = interaction_force(psis, asym, D2Q9)  # does not raise
        assert forces.shape == (2, 2, 4, 4)
        with pytest.raises(ValueError, match="symmetric"):
            validate_g_matrix(asym, 2)
