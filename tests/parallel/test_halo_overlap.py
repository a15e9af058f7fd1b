"""The overlapped halo schedule hides transit that the blocking one pays.

The overlap schedule posts the population halo right after colliding
the two boundary planes and waits only after the interior collide, so
message transit happens *behind* local compute instead of being paid as
blocked time in the wait.  The in-process transports deliver eagerly,
so there is no transit for the overlap to hide: a wait that finds its
message already queued costs nothing on either schedule.  The test
therefore emulates an interconnect with :class:`LatentLink`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.parallel.api import Communicator, Request
from repro.parallel.driver import ParallelLBM, assemble_global_f
from repro.parallel.threads import run_spmd

SHAPE = (96, 84)
PHASES = 40
RANKS = 2
#: Emulated per-message transit (seconds).  A 48-plane rank's interior
#: collide takes longer than this, so the overlapped schedule can cover
#: most of it; the blocking schedule waits as soon as it posts and
#: covers none.
LATENCY = 0.001


class LatentLink(Communicator):
    """Delegating communicator that emulates interconnect transit.

    The threads transport hands a message over the moment it is sent,
    which leaves nothing for an overlapped schedule to hide.  This link
    stamps every payload with its maturity time (``now + latency``); a
    receive whose wait begins before maturity sleeps out the remainder
    inside ``Request.wait`` — precisely where the driver's
    ``exposed_wait_s`` counter measures.  A wait that starts after
    maturity pays nothing: the transit happened behind compute.
    """

    def __init__(self, inner: Communicator, latency: float):
        self._inner = inner
        self._latency = latency

    @property
    def rank(self) -> int:
        return self._inner.rank

    @property
    def size(self) -> int:
        return self._inner.size

    def isend(self, dest, tag, payload) -> Request:
        return self._inner.isend(
            dest, tag, (time.perf_counter() + self._latency, payload)
        )

    def irecv(self, source, tag) -> Request:
        real = self._inner.irecv(source, tag)

        def resolve(timeout):
            matures, payload = real.wait(timeout)
            remaining = matures - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            return payload

        return Request(resolve=resolve, test=real.done)

    def barrier(self) -> None:
        self._inner.barrier()

    def allgather(self, payload, tag) -> list:
        return self._inner.allgather(payload, tag)


def channel_config() -> LBMConfig:
    return LBMConfig(
        geometry=ChannelGeometry(shape=SHAPE, wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        body_acceleration=(1e-6, 0.0),
    )


def halo_run(halo_overlap: bool, latency: float):
    cfg = channel_config()

    def rank_main(comm):
        driver = ParallelLBM(
            LatentLink(comm, latency),
            cfg,
            [SHAPE[0] // RANKS] * RANKS,
            policy="no-remap",
            halo_overlap=halo_overlap,
        )
        return driver.run(PHASES)

    return run_spmd(RANKS, rank_main)


def test_overlap_exposes_less_wait_than_blocking_at_the_same_bits():
    overlap = halo_run(True, LATENCY)
    blocking = halo_run(False, LATENCY)
    exposed_overlap = sum(r.exposed_wait_s for r in overlap)
    exposed_blocking = sum(r.exposed_wait_s for r in blocking)
    assert exposed_overlap < exposed_blocking, (exposed_overlap, exposed_blocking)
    # The emulated link delays messages; it must not change them.
    reference = assemble_global_f(halo_run(True, 0.0))
    assert np.array_equal(assemble_global_f(overlap), reference)
    assert np.array_equal(assemble_global_f(blocking), reference)
