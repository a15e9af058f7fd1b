"""The nonblocking Request protocol, on both transports.

The Communicator ABC's contract: transports implement ``isend``/``irecv``
only; the blocking calls are derived post-then-wait wrappers.  These
tests pin the request semantics the overlapped halo exchange builds on —
eager send completion, out-of-order tag resolution, idempotent waits,
and timeout diagnostics through the request path.
"""

import numpy as np
import pytest

from repro.parallel.api import CommunicatorTimeout, Request, wait_all
from repro.parallel.launch import launch_spmd


def launch(transport, size, fn):
    return launch_spmd(size, fn, transport=transport)


class TestRequestHandle:
    def test_completed_request_is_done_and_idempotent(self):
        req = Request.completed(41)
        assert req.done()
        assert req.wait() == 41
        assert req.wait() == 41

    def test_resolve_runs_once_and_caches(self):
        calls = []

        def resolve(timeout):
            calls.append(timeout)
            return "payload"

        req = Request(resolve=resolve, test=lambda: False)
        assert not req.done()
        assert req.wait(1.0) == "payload"
        assert req.wait(99.0) == "payload"
        assert calls == [1.0]
        assert req.done()

    def test_wait_all_preserves_order(self):
        reqs = [Request.completed(i * i) for i in range(4)]
        assert wait_all(reqs) == [0, 1, 4, 9]


@pytest.mark.parametrize("transport", ["threads", "processes"])
class TestNonblockingTransport:
    def test_isend_completes_eagerly_without_a_receiver(self, transport):
        # Buffered semantics: the send completes before any rank posts
        # the matching receive — what lets the overlap schedule post all
        # sends up front.
        def main(comm):
            if comm.rank == 0:
                req = comm.isend(1, ("t", 0), np.arange(3.0))
                assert req.done()
                req.wait()
                comm.barrier()
            else:
                comm.barrier()  # rank 0's send already completed
                return comm.irecv(0, ("t", 0)).wait()

        results = launch(transport, 2, main)
        assert np.array_equal(results[1], np.arange(3.0))

    def test_posted_receives_resolve_out_of_order(self, transport):
        def main(comm):
            if comm.rank == 0:
                comm.isend(1, "a", 10).wait()
                comm.isend(1, "b", 20).wait()
            else:
                req_b = comm.irecv(0, "b")
                req_a = comm.irecv(0, "a")
                return req_b.wait(), req_a.wait()

        results = launch(transport, 2, main)
        assert results[1] == (20, 10)

    def test_done_turns_true_once_the_message_lands(self, transport):
        def main(comm):
            if comm.rank == 0:
                comm.recv(1, "ready")
                comm.isend(1, "data", 7).wait()
            else:
                req = comm.irecv(0, "data")
                assert not req.done()  # nothing sent yet
                comm.isend(0, "ready", None).wait()
                value = req.wait()
                assert req.done()
                return value

        assert launch(transport, 2, main)[1] == 7

    def test_blocking_wrappers_ride_on_the_request_path(self, transport):
        # send/recv/sendrecv are ABC-derived; a round trip through them
        # must agree bit-for-bit with the explicit request form.
        def main(comm):
            peer = 1 - comm.rank
            data = np.full((4, 3), float(comm.rank + 1))
            got_blocking = comm.sendrecv(peer, data, peer, ("x", 1))
            req = comm.irecv(peer, ("x", 2))
            comm.isend(peer, ("x", 2), data)
            got_request = req.wait()
            return got_blocking, got_request

        for rank, (blocking, request) in enumerate(launch(transport, 2, main)):
            expect = np.full((4, 3), float((1 - rank) + 1))
            assert np.array_equal(blocking, expect)
            assert np.array_equal(request, expect)

    def test_request_wait_timeout_names_rank_peer_and_tag(self, transport):
        def both(comm):
            result = None
            if comm.rank == 1:
                try:
                    comm.irecv(0, ("never", 9)).wait(timeout=0.2)
                except CommunicatorTimeout as exc:
                    result = (exc.rank, exc.source, exc.tag)
            comm.barrier()
            return result

        results = launch(transport, 2, both)
        assert results[1] == (1, 0, ("never", 9))
