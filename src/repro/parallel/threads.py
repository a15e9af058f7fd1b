"""Thread-backed communicator: the emulated multi-node transport.

Each rank is a Python thread; messages travel through per-(source, dest)
blocking queues.  Because every receive names its exact (source, tag), the
lock-step LBM protocol is deterministic under any thread scheduling.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from collections import defaultdict
from collections.abc import Callable
from typing import Any, Hashable

from repro.parallel.api import (
    DEFAULT_RECV_TIMEOUT,
    Communicator,
    CommunicatorTimeout,
    Request,
)
from repro.util.validation import check_integer


class _World:
    """Shared mailbox fabric + barrier for one communicator world."""

    def __init__(self, size: int):
        self.size = size
        # One queue per (source, dest); messages carry their tag.  All
        # made here: created on first use, a sender and a receiver
        # racing for a fresh channel could each make their own queue
        # and the message would sit in the one nobody reads.
        self.channels: dict[tuple[int, int], queue.Queue] = {
            (source, dest): queue.Queue()
            for source in range(size)
            for dest in range(size)
            if source != dest
        }
        self.barrier = threading.Barrier(size)


class ThreadCommunicator(Communicator):
    """One rank's endpoint in a :class:`_World`.

    Out-of-order arrivals under the same channel are parked in a stash
    keyed by tag, so receives by (source, tag) never mis-deliver.
    """

    shares_interpreter = True

    def __init__(self, world: _World, rank: int):
        self._world = world
        self._rank = rank
        self._stash: dict[tuple[int, Hashable], list[Any]] = defaultdict(list)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.size

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"peer rank {peer} out of range [0, {self.size})")
        if peer == self._rank:
            raise ValueError("self-messaging is not part of the protocol")

    def isend(self, dest: int, tag: Hashable, payload: Any) -> Request:
        # A queue.put into the per-channel mailbox is the whole transfer:
        # the send is buffered and completes eagerly.
        self._check_peer(dest)
        self._world.channels[(self._rank, dest)].put((tag, payload))
        return Request.completed()

    def irecv(self, source: int, tag: Hashable) -> Request:
        self._check_peer(source)
        return Request(
            resolve=lambda timeout: self._pull(source, tag, timeout),
            test=lambda: bool(self._stash[(source, tag)]),
        )

    def _pull(
        self, source: int, tag: Hashable, timeout: float | None
    ) -> Any:
        """The blocking delivery engine behind every posted receive."""
        if timeout is None:
            timeout = DEFAULT_RECV_TIMEOUT
        stash = self._stash[(source, tag)]
        if stash:
            return stash.pop(0)
        chan = self._world.channels[(source, self._rank)]
        while True:
            try:
                got_tag, payload = chan.get(timeout=timeout)
            except queue.Empty:
                raise CommunicatorTimeout(
                    self._rank, source, tag, timeout, transport="threads"
                ) from None
            if got_tag == tag:
                return payload
            self._stash[(source, got_tag)].append(payload)

    def barrier(self) -> None:
        self._world.barrier.wait()


class LocalCluster:
    """Spawns *size* rank threads running one SPMD function.

    The function receives ``(comm, rank_args)`` and its return value is
    collected per rank.  Exceptions in any rank are re-raised in the
    caller (with the failing rank noted) after all threads stop.
    """

    def __init__(self, size: int):
        self.size = check_integer(size, "size", minimum=1)
        self._world = _World(self.size)

    def communicator(self, rank: int) -> ThreadCommunicator:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range")
        return ThreadCommunicator(self._world, rank)

    def run(
        self,
        fn: Callable[..., Any],
        *,
        rank_args: list[tuple] | None = None,
        timeout: float | None = 300.0,
    ) -> list[Any]:
        results: list[Any] = [None] * self.size
        errors: list[tuple[int, BaseException]] = []

        def worker(rank: int) -> None:
            comm = self.communicator(rank)
            args = rank_args[rank] if rank_args is not None else ()
            try:
                # repro: allow[REP002] -- each rank owns exactly slot [rank];
                # disjoint list-cell stores are race-free, read after join()
                results[rank] = fn(comm, *args)
            except BaseException as exc:  # propagate to the caller
                # repro: allow[REP002] -- list.append is atomic under the
                # GIL and the single consumer reads only after join()
                errors.append((rank, exc))

        # Ranks run in copies of the caller's context, where ``np.errstate`` lives.
        threads = [
            threading.Thread(target=contextvars.copy_context().run, args=(worker, r), daemon=True)
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
            if t.is_alive():
                raise TimeoutError("a rank thread failed to finish (deadlock?)")
        if errors:
            rank, exc = errors[0]
            errors.clear()  # each traceback holds a worker frame, which holds this list
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
        return results


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    *,
    rank_args: list[tuple] | None = None,
    timeout: float | None = 300.0,
) -> list[Any]:
    """Convenience: build a :class:`LocalCluster` and run *fn* on every
    rank, returning per-rank results."""
    return LocalCluster(size).run(fn, rank_args=rank_args, timeout=timeout)
