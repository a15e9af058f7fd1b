import sys

import numpy as np
import pytest

from repro.parallel.threads import LocalCluster, run_spmd


class TestPointToPoint:
    def test_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, "t", {"x": 42})
                return None
            return comm.recv(0, "t")

        results = run_spmd(2, fn)
        assert results[1] == {"x": 42}

    def test_numpy_payload(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, "arr", np.arange(5))
                return None
            return comm.recv(0, "arr")

        results = run_spmd(2, fn)
        assert np.array_equal(results[1], np.arange(5))

    def test_tag_disambiguation(self):
        """Out-of-order tags are stashed and delivered correctly."""

        def fn(comm):
            if comm.rank == 0:
                comm.send(1, "b", "second")
                comm.send(1, "a", "first")
                return None
            first = comm.recv(0, "a")
            second = comm.recv(0, "b")
            return (first, second)

        results = run_spmd(2, fn)
        assert results[1] == ("first", "second")

    def test_fifo_within_tag(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(1, "t", i)
                return None
            return [comm.recv(0, "t") for _ in range(5)]

        assert run_spmd(2, fn)[1] == [0, 1, 2, 3, 4]

    def test_self_send_rejected(self):
        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    comm.send(0, "t", 1)
            return True

        assert all(run_spmd(2, fn))

    def test_recv_timeout(self):
        def fn(comm):
            if comm.rank == 1:
                with pytest.raises(TimeoutError):
                    comm.recv(0, "never", timeout=0.1)
            return True

        assert all(run_spmd(2, fn))


    def test_first_message_of_a_fresh_world_is_never_lost(self):
        """Stress: a sender and a receiver touching a channel for the
        first time at once must meet in the same queue.  More ranks than
        cores, a shortened switch interval and many fresh worlds make a
        check-then-create race on the channel table show."""

        def fn(comm):
            others = [r for r in range(comm.size) if r != comm.rank]
            for peer in others:
                comm.send(peer, "hello", comm.rank)
            return [comm.recv(peer, "hello", timeout=2.0) for peer in others]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                assert run_spmd(4, fn, timeout=10.0) == [
                    [1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]
                ]
        finally:
            sys.setswitchinterval(interval)


class TestCollectives:
    def test_allgather_ordering(self):
        def fn(comm):
            return comm.allgather(comm.rank * 10, "g")

        results = run_spmd(4, fn)
        for r in results:
            assert r == [0, 10, 20, 30]

    def test_barrier(self):
        import threading

        counter = {"n": 0}
        lock = threading.Lock()

        def fn(comm):
            with lock:
                counter["n"] += 1
            comm.barrier()
            # After the barrier every rank must see all increments.
            return counter["n"]

        results = run_spmd(4, fn)
        assert all(r == 4 for r in results)

    def test_sendrecv_pair(self):
        def fn(comm):
            other = 1 - comm.rank
            return comm.sendrecv(other, f"from{comm.rank}", other, "sr")

        results = run_spmd(2, fn)
        assert results == ["from1", "from0"]

    def test_exchange_with_neighbours_chain(self):
        def fn(comm):
            left, right = comm.exchange_with_neighbours(
                f"L{comm.rank}", f"R{comm.rank}", "x"
            )
            return (left, right)

        results = run_spmd(3, fn)
        assert results[0] == (None, "L1")
        assert results[1] == ("R0", "L2")
        assert results[2] == ("R1", None)


class TestErrors:
    def test_rank_error_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            return True

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd(2, fn)

    def test_rank_args(self):
        def fn(comm, base):
            return base + comm.rank

        assert run_spmd(3, fn, rank_args=[(10,), (20,), (30,)]) == [10, 21, 32]

    def test_world_size_validated(self):
        with pytest.raises(ValueError):
            LocalCluster(0)

    def test_communicator_rank_validated(self):
        cluster = LocalCluster(2)
        with pytest.raises(ValueError):
            cluster.communicator(5)
