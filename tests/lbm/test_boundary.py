import numpy as np
import pytest

from repro.lbm.boundary import bounce_back
from repro.lbm.lattice import D2Q9
from repro.lbm.streaming import stream


class TestBounceBack:
    def test_reverses_at_solid(self):
        f = np.zeros((9, 4, 4))
        solid = np.zeros((4, 4), dtype=bool)
        solid[1, 1] = True
        k = next(i for i in range(9) if np.array_equal(D2Q9.c[i], [1, 0]))
        f[k, 1, 1] = 3.0
        bounce_back(f, solid, D2Q9)
        assert f[k, 1, 1] == 0.0
        assert f[D2Q9.opp[k], 1, 1] == 3.0

    def test_fluid_untouched(self):
        rng = np.random.default_rng(0)
        f = rng.random((9, 4, 4))
        solid = np.zeros((4, 4), dtype=bool)
        solid[0, :] = True
        fluid_before = f[:, ~solid].copy()
        bounce_back(f, solid, D2Q9)
        assert np.array_equal(f[:, ~solid], fluid_before)

    def test_mass_conserved(self):
        rng = np.random.default_rng(1)
        f = rng.random((9, 5, 5))
        solid = np.zeros((5, 5), dtype=bool)
        solid[:, 0] = True
        total = f.sum()
        bounce_back(f, solid, D2Q9)
        assert np.isclose(f.sum(), total)

    def test_no_solid_noop(self):
        rng = np.random.default_rng(2)
        f = rng.random((9, 4, 4))
        before = f.copy()
        bounce_back(f, np.zeros((4, 4), dtype=bool), D2Q9)
        assert np.array_equal(f, before)

    def test_double_application_is_identity(self):
        rng = np.random.default_rng(3)
        f = rng.random((9, 4, 4))
        solid = rng.random((4, 4)) > 0.5
        before = f.copy()
        bounce_back(f, solid, D2Q9)
        bounce_back(f, solid, D2Q9)
        assert np.allclose(f, before)

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            bounce_back(np.zeros((9, 4, 4)), np.zeros((3, 4), dtype=bool), D2Q9)


class TestNoSlipPhysics:
    def test_population_returns_to_sender(self):
        """A population streamed into a wall comes back to the fluid node
        with reversed direction after stream -> bounce -> stream."""
        f = np.zeros((9, 5, 5))
        solid = np.zeros((5, 5), dtype=bool)
        solid[:, 4] = True
        k_up = next(i for i in range(9) if np.array_equal(D2Q9.c[i], [0, 1]))
        f[k_up, 2, 3] = 1.0  # fluid node adjacent to the wall
        stream(f, D2Q9)
        assert f[k_up, 2, 4] == 1.0
        bounce_back(f, solid, D2Q9)
        stream(f, D2Q9)
        k_down = D2Q9.opp[k_up]
        assert f[k_down, 2, 3] == 1.0
