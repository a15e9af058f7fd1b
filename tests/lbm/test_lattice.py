import numpy as np
import pytest

from repro.lbm.lattice import D2Q9, D3Q19, Lattice


class TestD2Q9:
    def test_counts(self):
        assert D2Q9.Q == 9
        assert D2Q9.D == 2

    def test_weights_sum_to_one(self):
        assert np.isclose(D2Q9.w.sum(), 1.0)

    def test_zeroth_velocity_is_rest(self):
        assert not D2Q9.c[0].any()

    def test_opposites(self):
        for k in range(D2Q9.Q):
            assert np.array_equal(D2Q9.c[D2Q9.opp[k]], -D2Q9.c[k])

    def test_velocity_moments_isotropy(self):
        # sum w_k c_ka c_kb = cs2 * delta_ab
        c = D2Q9.c.astype(float)
        second = np.einsum("k,ka,kb->ab", D2Q9.w, c, c)
        assert np.allclose(second, D2Q9.cs2 * np.eye(2))

    def test_first_moment_vanishes(self):
        assert np.allclose(np.einsum("k,ka->a", D2Q9.w, D2Q9.c.astype(float)), 0)


class TestD3Q19:
    def test_counts(self):
        assert D3Q19.Q == 19
        assert D3Q19.D == 3

    def test_weights_sum_to_one(self):
        assert np.isclose(D3Q19.w.sum(), 1.0)

    def test_opposites(self):
        for k in range(D3Q19.Q):
            assert np.array_equal(D3Q19.c[D3Q19.opp[k]], -D3Q19.c[k])

    def test_velocity_moments_isotropy(self):
        c = D3Q19.c.astype(float)
        second = np.einsum("k,ka,kb->ab", D3Q19.w, c, c)
        assert np.allclose(second, D3Q19.cs2 * np.eye(3))

    def test_speed_classes(self):
        speeds = (D3Q19.c**2).sum(axis=1)
        assert sorted(np.unique(speeds)) == [0, 1, 2]
        assert (speeds == 1).sum() == 6
        assert (speeds == 2).sum() == 12

    def test_paper_direction_groups(self):
        # 5 directions to each x-neighbour, as the paper's halo exchange.
        assert len(D3Q19.directions_with(0, +1)) == 5
        assert len(D3Q19.directions_with(0, -1)) == 5


class TestDirectionsWith:
    def test_partition_of_directions(self):
        for lat in (D2Q9, D3Q19):
            pos = lat.directions_with(0, 1)
            neg = lat.directions_with(0, -1)
            zero = lat.directions_with(0, 0)
            assert len(pos) + len(neg) + len(zero) == lat.Q

    def test_symmetry(self):
        pos = set(D3Q19.directions_with(0, 1).tolist())
        neg = set(D3Q19.opp[D3Q19.directions_with(0, 1)].tolist())
        assert neg == set(D3Q19.directions_with(0, -1).tolist())
        assert pos.isdisjoint(neg)

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            D2Q9.directions_with(0, 2)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            D2Q9.directions_with(2, 1)


class TestLatticeValidation:
    def test_asymmetric_velocity_set_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Lattice("bad", np.array([[0, 0], [1, 0]]), np.array([0.5, 0.5]))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Lattice(
                "bad",
                np.array([[0, 0], [1, 0], [-1, 0]]),
                np.array([0.5, 0.5, 0.5]),
            )

    def test_weight_shape_mismatch(self):
        with pytest.raises(ValueError):
            Lattice("bad", np.array([[0, 0]]), np.array([0.5, 0.5]))

    def test_arrays_readonly(self):
        with pytest.raises(ValueError):
            D2Q9.c[0, 0] = 5
