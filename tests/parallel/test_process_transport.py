"""The multi-process shared-memory transport in isolation: the
communicator contract (ordering, stashing, chunking, collectives), its
failure modes (timeouts, dead ranks), the out-of-band return of rank
results, and the cluster lifecycle."""

import glob
import mmap
import multiprocessing.queues
import os
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.parallel.api import CommunicatorTimeout
from repro.parallel.launch import launch_spmd
from repro.parallel.process import ProcessCluster


def shm_entries() -> set[str]:
    return set(glob.glob("/dev/shm/*"))


def buffer_owner(array: np.ndarray):
    """The object at the end of *array*'s ``base`` chain."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array


class TestExchange:
    def test_ring_exchange_roundtrips_arrays(self):
        def fn(comm):
            payload = np.full((3, 4), float(comm.rank), dtype=np.float64)
            comm.send((comm.rank + 1) % comm.size, "ring", payload)
            received = comm.recv((comm.rank - 1) % comm.size, "ring")
            return float(received[0, 0])

        results = ProcessCluster(3).run(fn)
        assert results == [2.0, 0.0, 1.0]

    def test_arrays_cross_bit_exact_and_owned(self):
        rng = np.random.default_rng(42)
        original = rng.random((2, 9, 12, 7))

        def fn(comm, arr):
            if comm.rank == 0:
                comm.send(1, "blob", arr)
                return True
            received = comm.recv(0, "blob")
            # The received array is a private copy the rank may mutate.
            received[0, 0, 0, 0] = -1.0
            return bool(np.array_equal(received[1:], arr[1:]))

        results = ProcessCluster(2).run(fn, rank_args=[(original,), (original,)])
        assert results == [True, True]

    def test_large_array_chunks_through_small_slots(self):
        # 1.6 MB through 4 KiB slots: many ring chunks per message.
        big = np.arange(200_000, dtype=np.float64)

        def fn(comm, arr):
            if comm.rank == 0:
                comm.send(1, "big", arr)
                return True
            return bool(np.array_equal(comm.recv(0, "big"), arr))

        results = ProcessCluster(2, slot_bytes=4096).run(
            fn, rank_args=[(big,), (big,)]
        )
        assert results == [True, True]

    def test_non_array_payloads_pickle_through(self):
        # Small dict inline through the pipe; large blob through the ring.
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, "meta", {"planes": [3, 4], "phase": 7})
                comm.send(1, "blob", b"x" * 100_000)
                return True
            meta = comm.recv(0, "meta")
            blob = comm.recv(0, "blob")
            return meta["phase"] == 7 and len(blob) == 100_000

        assert ProcessCluster(2).run(fn) == [True, True]

    def test_out_of_order_tags_are_stashed(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, "first", np.array([1.0]))
                comm.send(1, "second", np.array([2.0]))
                return 0.0
            # Receive in the opposite order: "second" must be stashed
            # while draining toward it, then "first" served from stash.
            second = comm.recv(0, "second")[0]
            first = comm.recv(0, "first")[0]
            return second * 10 + first

        assert ProcessCluster(2).run(fn)[1] == 21.0

    def test_allgather_and_barrier(self):
        def fn(comm):
            comm.barrier()
            gathered = comm.allgather(comm.rank * 2, "ag")
            comm.barrier()
            return gathered

        results = ProcessCluster(4).run(fn)
        assert results == [[0, 2, 4, 6]] * 4


class TestFailures:
    def test_recv_timeout_is_communicator_timeout(self):
        def fn(comm):
            if comm.rank == 1:
                try:
                    comm.recv(0, "never", timeout=0.3)
                except CommunicatorTimeout as e:
                    # The structured fields survive the trip back to the
                    # parent (the exception is pickle-safe by design).
                    return (e.rank, e.source, e.tag, e.timeout, e.transport)
            return None

        results = ProcessCluster(2).run(fn)
        assert results[1] == (1, 0, "never", 0.3, "processes")

    def test_timeout_message_names_source_and_tag(self):
        def fn(comm):
            if comm.rank == 1:
                try:
                    comm.recv(0, "ghost", timeout=0.2)
                except CommunicatorTimeout as e:
                    return str(e)
            return ""

        results = ProcessCluster(2).run(fn)
        assert "source=0" in results[1]
        assert "ghost" in results[1]
        assert "processes" in results[1]

    def test_rank_error_surfaces_with_description(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("specific failure")
            comm.recv((comm.rank + 1) % 3, "never", timeout=30.0)
            return True

        with pytest.raises(RuntimeError, match="rank 2") as exc:
            ProcessCluster(3).run(fn)
        assert "specific failure" in str(exc.value)

    def test_dead_rank_process_is_detected(self):
        # A rank that dies without reporting (os._exit skips cleanup and
        # the result queue) must not hang the collector.
        def fn(comm):
            if comm.rank == 0:
                import os

                os._exit(3)
            comm.recv(0, "never", timeout=60.0)
            return True

        with pytest.raises(RuntimeError, match="rank 0") as exc:
            ProcessCluster(2).run(fn, timeout=30.0)
        assert "exitcode" in str(exc.value)

    def test_join_timeout_reports_deadlock(self):
        def fn(comm):
            try:
                comm.recv(1 - comm.rank, "never", timeout=30.0)
            except TimeoutError:
                pass
            return True

        with pytest.raises(TimeoutError, match="deadlock"):
            ProcessCluster(2).run(fn, timeout=1.0)


def random_slab(comm):
    return np.random.default_rng(comm.rank).random((2, 9, 20, 12))


class TestResultReturn:
    """Rank results come back out of band: their array buffers through
    one /dev/shm file per rank, mapped by the parent, not through the
    result queue."""

    def test_slabs_equal_the_thread_run_and_live_in_the_mapping(self):
        forked = ProcessCluster(2).run(random_slab)
        threaded = launch_spmd(2, random_slab, transport="threads")
        for slab, same in zip(forked, threaded):
            assert np.array_equal(slab, same)
            owner = buffer_owner(slab)
            assert isinstance(owner, memoryview)
            assert isinstance(owner.obj, mmap.mmap)
            assert slab.flags.writeable and slab.flags.aligned

    def test_only_a_small_pickle_rides_the_result_queue(self, monkeypatch):
        queued = []
        loads = ForkingPickler.loads

        def spy(data, *args, **kwargs):
            queued.append(len(data))
            return loads(data, *args, **kwargs)

        monkeypatch.setattr(ForkingPickler, "loads", spy)
        results = launch_spmd(
            2, lambda comm: np.ones(1 << 20), transport="processes"
        )
        assert [r.nbytes for r in results] == [8 << 20] * 2
        assert len(queued) == 2 and max(queued) < 4096

    @pytest.mark.parametrize(
        "payload",
        [
            np.arange(30.0).reshape(5, 6)[:, ::2],
            np.asfortranarray(np.arange(24, dtype=np.int32).reshape(4, 6)),
            np.zeros((0, 4)),
            np.array([1, "a", None], dtype=object),
            {"planes": [3, 4], "phase": 7, "tag": ("x", None)},
            [np.zeros(0), np.arange(5), np.ones((3, 3), order="F")[::2]],
        ],
        ids=["strided", "fortran", "empty", "object", "plain", "mixed"],
    )
    def test_awkward_payloads_round_trip(self, payload):
        results = ProcessCluster(2).run(lambda comm: payload)
        for got in results:
            if isinstance(payload, np.ndarray):
                assert got.dtype == payload.dtype
                assert got.flags.f_contiguous == payload.flags.f_contiguous
                assert np.array_equal(got, payload)
            elif isinstance(payload, list):
                assert all(np.array_equal(g, p) for g, p in zip(got, payload))
            else:
                assert got == payload

    def test_rank_dying_after_staging_fails_and_leaves_no_segment(
        self, monkeypatch
    ):
        before = shm_entries()
        cluster = ProcessCluster(2)
        with_rings = shm_entries()
        put = multiprocessing.queues.Queue.put

        def die_in_rank_1(queue, record, *args, **kwargs):
            # Rank 1 has staged its slab (exit code 7 says the segment
            # exists) and dies before reporting it.
            if record[1] == 1:
                os._exit(7 if shm_entries() - with_rings else 8)
            return put(queue, record, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.queues.Queue, "put", die_in_rank_1)
        with pytest.raises(RuntimeError, match="rank 1 failed") as exc:
            cluster.run(lambda comm: np.ones(4096) if comm.rank else None)
        assert "exitcode 7" in str(exc.value)
        assert shm_entries() - before == set()


class TestClusterLifecycle:
    def test_cluster_is_single_use(self):
        cluster = ProcessCluster(2)
        assert cluster.run(lambda comm: comm.rank) == [0, 1]
        with pytest.raises(RuntimeError, match="already ran"):
            cluster.run(lambda comm: comm.rank)

    def test_shared_memory_is_released(self):
        # After a run (success or failure) no /dev/shm segments leak:
        # neither link rings nor staged results, including the result of
        # a rank whose peer failed before the parent collected it.
        def slab_or_boom(comm):
            if comm.rank == 1:
                comm.recv(0, "staged")
                raise RuntimeError("boom")
            result = np.ones(4096)
            comm.send(1, "staged", None)
            return result

        before = shm_entries()
        ProcessCluster(3).run(lambda comm: comm.allgather(comm.rank, "ag"))
        ProcessCluster(2).run(lambda comm: np.ones(4096))
        with pytest.raises(RuntimeError):
            ProcessCluster(2).run(_exploder)
        with pytest.raises(RuntimeError, match="boom"):
            ProcessCluster(2).run(slab_or_boom)
        assert shm_entries() - before == set()

    def test_size_one_world_works(self):
        assert ProcessCluster(1).run(lambda comm: comm.allgather("x", "t")) == [["x"]]


def _exploder(comm):
    raise RuntimeError("boom")
