import numpy as np
import pytest

from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.streaming import stream


class TestStream2D:
    def test_rest_population_static(self):
        f = np.zeros((9, 4, 4))
        f[0, 1, 2] = 1.0
        stream(f, D2Q9)
        assert f[0, 1, 2] == 1.0

    def test_single_hop(self):
        f = np.zeros((9, 5, 5))
        # direction 1 is (1, 0)
        k = next(
            i for i in range(9) if np.array_equal(D2Q9.c[i], [1, 0])
        )
        f[k, 2, 2] = 1.0
        stream(f, D2Q9)
        assert f[k, 3, 2] == 1.0
        assert f[k, 2, 2] == 0.0

    def test_periodic_wrap(self):
        f = np.zeros((9, 3, 3))
        k = next(i for i in range(9) if np.array_equal(D2Q9.c[i], [1, 0]))
        f[k, 2, 1] = 1.0
        stream(f, D2Q9)
        assert f[k, 0, 1] == 1.0

    def test_diagonal_hop(self):
        f = np.zeros((9, 5, 5))
        k = next(i for i in range(9) if np.array_equal(D2Q9.c[i], [1, 1]))
        f[k, 1, 1] = 1.0
        stream(f, D2Q9)
        assert f[k, 2, 2] == 1.0

    def test_mass_conserved(self):
        rng = np.random.default_rng(1)
        f = rng.random((9, 6, 7))
        total = f.sum()
        stream(f, D2Q9)
        assert np.isclose(f.sum(), total)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        f = rng.random((9, 4, 4))
        orig = f.copy()
        for _ in range(4):  # lcm of shape dims
            stream(f, D2Q9)
        assert np.allclose(f, orig)

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            stream(np.zeros((9, 4)), D2Q9)


class TestStream3D:
    def test_single_hop(self):
        f = np.zeros((19, 4, 4, 4))
        k = next(
            i for i in range(19) if np.array_equal(D3Q19.c[i], [0, 0, 1])
        )
        f[k, 1, 2, 3] = 1.0
        stream(f, D3Q19)
        assert f[k, 1, 2, 0] == 1.0  # wrapped

    def test_mass_conserved(self):
        rng = np.random.default_rng(3)
        f = rng.random((19, 3, 4, 5))
        total = f.sum()
        stream(f, D3Q19)
        assert np.isclose(f.sum(), total)
