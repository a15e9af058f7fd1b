"""The slab decomposition: the even split the driver starts from, the
layouts it accepts, and what every rank reports about its slab."""

import numpy as np
import pytest

from repro.api import RunSpec, execute_parallel
from repro.core.partition import SlicePartition
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.parallel.driver import ParallelLBM
from repro.parallel.threads import run_spmd


def even_split(total, parts):
    return SlicePartition.even(total, parts, 1).plane_counts().tolist()


def config(nx=20, ny=14):
    return LBMConfig(
        geometry=ChannelGeometry(shape=(nx, ny), wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        body_acceleration=(1e-6, 0.0),
    )


class TestEvenSplit:
    def test_remainder_goes_to_leading_bands(self):
        assert even_split(20, 3) == [7, 7, 6]
        assert even_split(14, 2) == [7, 7]

    def test_exact_division(self):
        assert even_split(12, 4) == [3, 3, 3, 3]

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError, match="cannot split 3 planes over 4"):
            even_split(3, 4)


class TestDriverLayout:
    def test_default_layout_is_the_even_split(self):
        cfg = config()

        def rank_main(comm):
            driver = ParallelLBM(comm, cfg)
            return driver.plane_start, driver.local_planes

        assert run_spmd(3, rank_main) == [(0, 7), (7, 7), (14, 6)]

    def test_explicit_plane_counts_set_the_layout(self):
        cfg = config(nx=21)

        def rank_main(comm):
            driver = ParallelLBM(comm, cfg, plane_counts=[10, 1, 10])
            return driver.plane_start, driver.local_planes, driver.f.shape[2]

        assert run_spmd(3, rank_main) == [(0, 10, 12), (10, 1, 3), (11, 10, 12)]

    def test_more_ranks_than_planes_fail_before_launch(self):
        with pytest.raises(ValueError, match="cannot split 20 planes over 40"):
            execute_parallel(RunSpec(config=config(), phases=2, ranks=40))

    def test_every_rank_reports_its_exposed_wait(self):
        records = execute_parallel(
            RunSpec(config=config(), phases=5, ranks=4, policy="no-remap")
        )
        assert [(r.plane_start, r.plane_count) for r in records] == [
            (0, 5), (5, 5), (10, 5), (15, 5),
        ]
        for r in records:
            assert r.exposed_wait_s >= 0.0
