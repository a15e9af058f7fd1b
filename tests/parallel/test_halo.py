import numpy as np
import pytest

from repro.lbm.lattice import D2Q9
from repro.parallel.halo import HaloExchanger
from repro.parallel.threads import run_spmd


def make_slab(rank, planes, cross=4, ncomp=1):
    """Interior planes carry the value 100*rank + local_index."""
    f = np.zeros((ncomp, D2Q9.Q, planes + 2, cross))
    for i in range(planes):
        f[:, :, i + 1] = 100 * rank + i
    return f


class TestExchangeF:
    def test_ring_exchange(self):
        def fn(comm):
            halo = HaloExchanger(D2Q9, comm)
            f = make_slab(comm.rank, planes=3)
            halo.exchange_f(f, phase=0)
            right_dirs = halo.right_dirs
            left_dirs = halo.left_dirs
            # Left ghost holds left neighbour's LAST interior plane values.
            left_nb = (comm.rank - 1) % comm.size
            right_nb = (comm.rank + 1) % comm.size
            ok_left = np.allclose(f[:, right_dirs, 0], 100 * left_nb + 2)
            ok_right = np.allclose(f[:, left_dirs, -1], 100 * right_nb + 0)
            return ok_left and ok_right

        assert all(run_spmd(3, fn))

    def test_only_split_directions_filled(self):
        def fn(comm):
            halo = HaloExchanger(D2Q9, comm)
            f = make_slab(comm.rank, planes=2)
            f[:, :, 0] = -7.0  # sentinel in the ghost
            halo.exchange_f(f, phase=1)
            zero_dirs = [
                k
                for k in range(D2Q9.Q)
                if k not in set(halo.right_dirs) | set(halo.left_dirs)
            ]
            return np.allclose(f[:, zero_dirs, 0], -7.0)

        assert all(run_spmd(2, fn))

    def test_size_one_wraps_locally(self):
        def fn(comm):
            halo = HaloExchanger(D2Q9, comm)
            f = make_slab(comm.rank, planes=3)
            halo.exchange_f(f, phase=0)
            return np.allclose(f[:, halo.right_dirs, 0], 2) and np.allclose(
                f[:, halo.left_dirs, -1], 0
            )

        assert all(run_spmd(1, fn))

    def test_two_rank_ring_no_aliasing(self):
        """With 2 ranks, left and right neighbour are the same peer; the
        direction-tagged messages must not get swapped."""

        def fn(comm):
            halo = HaloExchanger(D2Q9, comm)
            f = make_slab(comm.rank, planes=4)
            halo.exchange_f(f, phase=0)
            other = 1 - comm.rank
            ok_left = np.allclose(f[:, halo.right_dirs, 0], 100 * other + 3)
            ok_right = np.allclose(f[:, halo.left_dirs, -1], 100 * other + 0)
            return ok_left and ok_right

        assert all(run_spmd(2, fn))


class TestExchangeScalar:
    def test_scalar_ring(self):
        def fn(comm):
            halo = HaloExchanger(D2Q9, comm)
            rho = np.zeros((2, 5, 4))  # 3 interior planes + ghosts
            for i in range(3):
                rho[:, i + 1] = 10 * comm.rank + i
            halo.exchange_scalar(rho, phase=0, kind="halo_rho")
            left_nb = (comm.rank - 1) % comm.size
            right_nb = (comm.rank + 1) % comm.size
            return np.allclose(rho[:, 0], 10 * left_nb + 2) and np.allclose(
                rho[:, -1], 10 * right_nb + 0
            )

        assert all(run_spmd(3, fn))

    def test_multiple_phases_tagged_separately(self):
        def fn(comm):
            halo = HaloExchanger(D2Q9, comm)
            rho = np.zeros((1, 4, 3))
            rho[:, 1] = comm.rank
            rho[:, 2] = comm.rank
            for phase in range(3):
                halo.exchange_scalar(rho, phase=phase, kind="halo_rho")
            return True

        assert all(run_spmd(2, fn))
