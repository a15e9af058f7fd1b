"""What the driver says on the wire, counted message by message.

A delegating :class:`Communicator` logs every point-to-point post and
every collective, so the tests below can pin two things no bitwise
comparison sees: the paper's *neighbour-local* remapping (PAPER.md §1,
contribution 3 — a 1-D windowed round talks to rank ± 1 and nobody
else), and the order of the single phase schedule around its
``mid_phase`` fault point.
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np
import pytest

from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.obs import MemorySink, Observer
from repro.parallel.api import Communicator
from repro.parallel.driver import ParallelLBM
from repro.parallel.threads import run_spmd


class CountingComm(Communicator):
    """Delegates to *inner* and appends ``(call, peer, tag)`` to
    ``log`` for every post and collective (peer is ``None`` for the
    collectives)."""

    def __init__(self, inner: Communicator):
        self._inner = inner
        self.log: list[tuple[str, int | None, Hashable]] = []

    @property
    def rank(self) -> int:
        return self._inner.rank

    @property
    def size(self) -> int:
        return self._inner.size

    def isend(self, dest: int, tag: Hashable, payload: Any):
        self.log.append(("isend", dest, tag))
        return self._inner.isend(dest, tag, payload)

    def irecv(self, source: int, tag: Hashable):
        self.log.append(("irecv", source, tag))
        return self._inner.irecv(source, tag)

    def barrier(self) -> None:
        self.log.append(("barrier", None, None))
        self._inner.barrier()

    def allgather(self, payload: Any, tag: Hashable) -> list[Any]:
        self.log.append(("allgather", None, tag))
        return self._inner.allgather(payload, tag)


def config():
    return LBMConfig(
        geometry=ChannelGeometry(shape=(40, 14), wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        body_acceleration=(1e-6, 0.0),
    )


def slow_second_rank(rank, phase, points):
    t = points * 1e-6
    return t / 0.3 if rank == 1 else t


def remap_round_logs(policy, rounds=2):
    """Per rank: the messages of each remap round (everything
    :meth:`ParallelLBM.maybe_remap` posted) and the planes it sent."""
    cfg = config()
    interval = 5

    def rank_main(comm):
        counting = CountingComm(comm)
        driver = ParallelLBM(
            counting, cfg, policy=policy,
            remap_config=RemappingConfig(interval=interval, history=interval),
            load_time_fn=slow_second_rank,
        )
        logs = []
        for _ in range(rounds):
            for _ in range(interval):
                driver.step_phase()
            mark = len(counting.log)
            driver.maybe_remap()
            logs.append(counting.log[mark:])
        return logs, driver.planes_sent

    return run_spmd(4, rank_main, timeout=60.0)


class TestNeighbourLocalRemapping:
    @pytest.mark.parametrize("policy", ["filtered", "conservative"])
    def test_windowed_chain_round_is_neighbour_only(self, policy):
        per_rank = remap_round_logs(policy)
        assert sum(sent for _, sent in per_rank) > 0  # planes did move
        for rank, (rounds, _) in enumerate(per_rank):
            for log in rounds:
                assert not [e for e in log if e[0] in ("allgather", "barrier")]
                for _, peer, tag in log:
                    if str(tag[0]).startswith("halo"):
                        # The refreshed density halo rides the periodic x ring.
                        assert peer in ((rank - 1) % 4, (rank + 1) % 4)
                    else:
                        # Load indices, proposals, planes: the linear chain.
                        assert tag[0] in ("loadidx", "proposal", "migrate")
                        assert peer in (rank - 1, rank + 1) and 0 <= peer < 4

    @pytest.mark.parametrize("policy", ["global"], ids=["global-chain"])
    def test_gathered_round_is_one_allgather(self, policy):
        for rounds, _ in remap_round_logs(policy):
            for log in rounds:
                calls = [e[0] for e in log]
                assert calls.count("allgather") == 1
                assert calls.count("barrier") == 0
                assert not [
                    e for e in log if e[2] and e[2][0] in ("loadidx", "proposal")
                ]


class RecordingFaults:
    """Stands in for a :class:`repro.ckpt.FaultPlan`: logs the fault
    points into the rank's message log instead of killing anything."""

    def __init__(self, log: list):
        self.log = log

    def fire(self, site: str, *, rank: int, at: int) -> None:
        self.log.append(("fire", None, (site, at)))


class TestPhaseSchedule:
    def test_mid_phase_fires_after_all_collision_before_any_f_send(self):
        """A fault plan forces the blocking piece list; per phase the
        wire then reads: collide everything, ``mid_phase``, only then the
        population halo — so a kill there strands no peer and a
        checkpoint can never observe a half-collided state."""
        cfg = config()

        def rank_main(comm):
            counting = CountingComm(comm)
            driver = ParallelLBM(
                counting, cfg, policy="no-remap",
                faults=RecordingFaults(counting.log), halo_overlap=True,
            )
            collide = driver.backend.collide_bgk

            def logged_collide(*args, **kwargs):
                counting.log.append(("collide", None, None))
                return collide(*args, **kwargs)

            driver.backend.collide_bgk = logged_collide
            mark = len(counting.log)
            for _ in range(3):
                driver.step_phase()
            return counting.log[mark:]

        for log in run_spmd(2, rank_main, timeout=60.0):
            script = [
                "collide" if call == "collide"
                else "mid_phase" if call == "fire"
                else "send_f"
                for call, _, tag in log
                if call == "collide"
                or (call == "fire" and tag[0] == "mid_phase")
                or (call == "isend" and tag[0] == "halo_f")
            ]
            assert script == ["collide", "mid_phase", "send_f", "send_f"] * 3
            fired = [tag[1] for call, _, tag in log if call == "fire"]
            assert fired == [0, 1, 2]

    @staticmethod
    def traced_samples(halo_overlap):
        cfg = config()
        observer = Observer(sink=MemorySink())

        def rank_main(comm):
            driver = ParallelLBM(
                comm, cfg, policy="no-remap", observer=observer,
                halo_overlap=halo_overlap,
            )
            return [driver.step_phase() for _ in range(4)]

        samples = run_spmd(2, rank_main, timeout=60.0)
        phases = [e for e in observer.sink.events if e["type"] == "phase"]
        return samples, phases

    def test_phase_events_carry_the_same_keys_under_both_schedules(self):
        keys = {
            overlap: {frozenset(e) for e in self.traced_samples(overlap)[1]}
            for overlap in (True, False)
        }
        assert len(keys[True]) == 1 and keys[True] == keys[False]
        assert "t_halo_wait" in next(iter(keys[True]))

    @pytest.mark.parametrize("halo_overlap", [True, False])
    def test_load_index_sample_is_the_events_compute_time(self, halo_overlap):
        """Without a ``load_time_fn`` the sample a phase returns is its
        compute time: everything but the wait for the population halo."""
        samples, phases = self.traced_samples(halo_overlap)
        assert len(phases) == 8
        for ev in phases:
            compute = (
                ev["t_collide"] + ev["t_stream_bounce"]
                + ev["t_moments"] + ev["t_halo_rho"]
            )
            assert samples[ev["rank"]][ev["phase"]] == pytest.approx(
                compute, rel=1e-9, abs=1e-12
            )
            assert ev["t_total"] == pytest.approx(
                compute + ev["t_halo_f"], rel=1e-9, abs=1e-12
            )
