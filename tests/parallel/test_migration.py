import numpy as np
import pytest

from repro.parallel.migration import pack_band, unpack_band


def padded(values):
    """Build a (1, 2, len+2, 3) slab whose interior planes carry *values*."""
    n = len(values)
    f = np.zeros((1, 2, n + 2, 3))
    for i, v in enumerate(values):
        f[:, :, i + 1] = v
    return f


def interior_values(f):
    return [float(f[0, 0, i, 0]) for i in range(1, f.shape[2] - 1)]


class TestPackPlanes:
    def test_pack_left(self):
        f = padded([10, 11, 12, 13])
        package, rest = pack_band(f, "low", 2)
        assert package.shape[2] == 2
        assert float(package[0, 0, 0, 0]) == 10
        assert interior_values(rest) == [12, 13]

    def test_pack_right(self):
        f = padded([10, 11, 12, 13])
        package, rest = pack_band(f, "high", 1)
        assert float(package[0, 0, 0, 0]) == 13
        assert interior_values(rest) == [10, 11, 12]

    def test_keeps_at_least_one_plane(self):
        f = padded([1, 2])
        with pytest.raises(ValueError):
            pack_band(f, "low", 2)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            pack_band(padded([1, 2]), "up", 1)

    def test_ghosts_zeroed(self):
        f = padded([1, 2, 3])
        f[:, :, 0] = 99
        _, rest = pack_band(f, "low", 1)
        assert not rest[:, :, 0].any()
        assert not rest[:, :, -1].any()


class TestUnpackPlanes:
    def test_attach_left(self):
        f = padded([20, 21])
        package = np.full((1, 2, 2, 3), 5.0)
        out = unpack_band(f, package, "low")
        assert interior_values(out) == [5, 5, 20, 21]

    def test_attach_right(self):
        f = padded([20, 21])
        package = np.full((1, 2, 1, 3), 7.0)
        out = unpack_band(f, package, "high")
        assert interior_values(out) == [20, 21, 7]

    def test_shape_mismatch(self):
        f = padded([20, 21])
        with pytest.raises(ValueError):
            unpack_band(f, np.zeros((1, 2, 1, 4)), "low")

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            unpack_band(padded([1]), np.zeros((1, 2, 1, 3)), "middle")


class TestRoundTrip:
    def test_pack_unpack_preserves_data(self):
        rng = np.random.default_rng(0)
        f = np.zeros((2, 9, 7, 4))
        f[:, :, 1:-1] = rng.random((2, 9, 5, 4))
        original = f[:, :, 1:-1].copy()
        package, rest = pack_band(f, "high", 2)
        restored = unpack_band(rest, package, "high")
        assert np.array_equal(restored[:, :, 1:-1], original)

    def test_mass_preserved(self):
        rng = np.random.default_rng(1)
        f = np.zeros((1, 9, 8, 3))
        f[:, :, 1:-1] = rng.random((1, 9, 6, 3))
        total = f.sum()
        package, rest = pack_band(f, "low", 3)
        assert package.sum() + rest.sum() == pytest.approx(total)
