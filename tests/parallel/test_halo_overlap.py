"""The overlapped halo schedule hides transit that the blocking one pays.

The overlap schedule posts the population halo right after colliding
the two boundary planes and waits only after the interior collide, so
message transit happens *behind* local compute instead of being paid as
blocked time in the wait.  The in-process transports deliver eagerly,
so there is no transit for the overlap to hide: a wait that finds its
message already queued costs nothing on either schedule.  The tests
therefore emulate an interconnect with :class:`LatentLink`.

Whether the overlap can hide the transit depends on a premise about
speed: the interior collide must outlast the emulated transit.  The
timing test asserts that premise before it compares waits, so a kernel
fast enough to break it fails on the premise, not at random.  The
schedule itself is checked without clocks: the link records, for every
population-halo receive, whether local compute ran between this rank's
post and the wait.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.parallel.api import Communicator, Request
from repro.parallel.driver import ParallelLBM, assemble_global_f
from repro.parallel.threads import run_spmd

SHAPE = (96, 2016)
PHASES = 20
RANKS = 2
#: Emulated per-message transit (seconds).  A 48-plane rank's interior
#: collide takes several times longer (≈ 4–9 ms on a 2-vCPU box; the
#: test asserts at least 3×), so the overlapped schedule can cover it;
#: the blocking schedule waits as soon as it posts and covers none.
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

    ``computed_behind`` holds one entry per population-halo receive, in
    wait order: whether :meth:`note_compute` was called after this rank
    last posted its population halo and before the wait.
    """

    def __init__(self, inner: Communicator, latency: float):
        self._inner = inner
        self._latency = latency
        self.computed_behind: list[bool] = []
        self._computed = False

    def note_compute(self) -> None:
        self._computed = True

    @property
    def rank(self) -> int:
        return self._inner.rank

    @property
    def size(self) -> int:
        return self._inner.size

    def isend(self, dest, tag, payload) -> Request:
        if tag[0] == "halo_f":
            self._computed = False
        return self._inner.isend(
            dest, tag, (time.perf_counter() + self._latency, payload)
        )

    def irecv(self, source, tag) -> Request:
        real = self._inner.irecv(source, tag)
        f_halo = tag[0] == "halo_f"

        def resolve(timeout):
            if f_halo:
                self.computed_behind.append(self._computed)
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


class TimedDriver(ParallelLBM):
    """Tells its link whenever local compute ran, and times the interior
    collide (``interior_collide_s``, one entry per phase)."""

    def __init__(self, *args, **kwargs):
        self.interior_collide_s: list[float] = []
        super().__init__(*args, **kwargs)

    def _collide_piece(self, piece):
        t0 = time.perf_counter()
        super()._collide_piece(piece)
        if piece is self._mid_piece:
            self.interior_collide_s.append(time.perf_counter() - t0)
        self.comm.note_compute()


def halo_run(halo_overlap: bool, latency: float):
    """Per rank: the run's result, its interior collide times and its
    link's ``computed_behind`` record."""
    cfg = channel_config()

    def rank_main(comm):
        link = LatentLink(comm, latency)
        driver = TimedDriver(
            link, cfg, policy="no-remap", halo_overlap=halo_overlap
        )
        result = driver.run(PHASES)
        return result, driver.interior_collide_s, link.computed_behind

    return run_spmd(RANKS, rank_main)


@pytest.fixture(scope="module")
def runs():
    return {
        "overlap": halo_run(True, LATENCY),
        "blocking": halo_run(False, LATENCY),
        "instant": halo_run(True, 0.0),
    }


def results(ranks):
    return [result for result, _, _ in ranks]


def test_overlap_exposes_less_wait_than_blocking_at_the_same_bits(runs):
    overlap, blocking = results(runs["overlap"]), results(runs["blocking"])
    # The premise: the interior collide outlasts the transit it hides.
    collide = statistics.median(
        t for _, times, _ in runs["overlap"] for t in times
    )
    assert collide >= 3 * LATENCY, (
        f"interior collide {collide * 1e3:.2f} ms is under 3x the "
        f"{LATENCY * 1e3:.0f} ms transit: grow SHAPE"
    )
    exposed_overlap = sum(r.exposed_wait_s for r in overlap)
    exposed_blocking = sum(r.exposed_wait_s for r in blocking)
    assert exposed_overlap < exposed_blocking, (exposed_overlap, exposed_blocking)
    # The emulated link delays messages; it must not change them.
    reference = assemble_global_f(results(runs["instant"]))
    assert np.array_equal(assemble_global_f(overlap), reference)
    assert np.array_equal(assemble_global_f(blocking), reference)


def test_only_the_overlap_computes_behind_the_population_halo(runs):
    """Two receives per rank and phase: the overlapped schedule collides
    its interior behind every one of them, the blocking one behind none."""
    for name, expected in (("overlap", True), ("blocking", False)):
        for _, _, behind in runs[name]:
            assert behind == [expected] * (2 * PHASES), name
