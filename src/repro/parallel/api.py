"""The communicator abstraction.

A tiny MPI subset sufficient for the paper's algorithm — generalized to
the nonblocking style the overlapped halo exchange needs.  The
abstract primitives are ``isend``/``irecv``, both returning a waitable
:class:`Request` handle; the blocking ``send``/``recv``/``sendrecv``
calls are derived wrappers (post + wait), so a transport implements only
the nonblocking set.  Tags keep phases and message kinds apart so the
lock-step protocol is deterministic regardless of scheduling.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Hashable

#: Default patience of a blocking wait before the transport declares the
#: peer dead (shared by both transports so hang diagnostics match).
DEFAULT_RECV_TIMEOUT = 60.0


class CommunicatorTimeout(TimeoutError):
    """A blocking receive (or request wait) gave up waiting.

    Raised by every transport (threads *and* processes) with the same
    diagnostic fields, so a hung protocol names the rank, the peer and
    the tag it was waiting on instead of dying as an anonymous
    ``queue.Empty``/``TimeoutError`` sixty seconds later.
    """

    def __init__(
        self,
        rank: int,
        source: int,
        tag: Hashable,
        timeout: float,
        transport: str = "threads",
    ):
        self.rank = rank
        self.source = source
        self.tag = tag
        self.timeout = timeout
        self.transport = transport
        super().__init__(
            f"rank {rank} timed out after {timeout:g}s waiting for "
            f"(source={source}, tag={tag!r}) on the {transport} transport; "
            f"rank {source} may have died, deadlocked, or never sent"
        )

    def __reduce__(self):
        # Default exception pickling replays only super().__init__'s
        # single string; rebuild from the diagnostic fields instead so
        # the error survives a trip through a result queue.
        return (
            type(self),
            (self.rank, self.source, self.tag, self.timeout, self.transport),
        )


class Request:
    """A waitable handle for a posted nonblocking operation.

    ``wait()`` blocks until the operation completes and returns its value
    (the received payload for an ``irecv``, ``None`` for an ``isend``).
    Waiting twice returns the same cached value — requests are
    single-shot but idempotent.  ``done()`` reports completion without
    blocking (conservative: it may say ``False`` for a message that
    would be delivered instantly).
    """

    __slots__ = ("_complete", "_value", "_resolve", "_test")

    def __init__(
        self,
        resolve: Callable[[float | None], Any] | None = None,
        test: Callable[[], bool] | None = None,
    ):
        self._complete = resolve is None
        self._value: Any = None
        self._resolve = resolve
        self._test = test

    @classmethod
    def completed(cls, value: Any = None) -> "Request":
        """An already-finished request (buffered sends complete eagerly)."""
        req = cls()
        req._value = value
        return req

    def done(self) -> bool:
        if self._complete:
            return True
        if self._test is not None:
            return self._test()
        return False

    def wait(self, timeout: float | None = None) -> Any:
        """Block until completion; returns the operation's value.

        *timeout* bounds the wait in seconds (``None``: the transport's
        default); expiry raises :class:`CommunicatorTimeout` naming the
        rank/peer/tag being waited on.
        """
        if not self._complete:
            resolve = self._resolve
            assert resolve is not None
            self._value = resolve(timeout)
            self._complete = True
            self._resolve = None
            self._test = None
        return self._value


class Communicator(ABC):
    """Point of contact of one rank with the rest of the world.

    Transports implement only the nonblocking primitives (plus the
    collectives); the blocking calls are derived post-then-wait
    wrappers, so ``send``/``recv``/``sendrecv`` behave identically on
    every transport by construction.
    """

    #: This transport's ranks share one interpreter (one GIL), so their
    #: kernels keep wide column blocks; a transport that does not say does.
    shares_interpreter: bool = True

    @property
    @abstractmethod
    def rank(self) -> int:
        """This rank's index in [0, size)."""

    @property
    @abstractmethod
    def size(self) -> int:
        """World size."""

    # --------------------------------------------------------- nonblocking
    @abstractmethod
    def isend(self, dest: int, tag: Hashable, payload: Any) -> Request:
        """Post a buffered send; the returned request is typically already
        complete (both in-process transports copy into transit storage
        eagerly, so ``isend`` never blocks on the receiver)."""

    @abstractmethod
    def irecv(self, source: int, tag: Hashable) -> Request:
        """Post a receive for exactly (source, tag); ``wait()`` on the
        returned request blocks until the message arrives and returns
        its payload."""

    # ------------------------------------------------------------- derived
    def send(self, dest: int, tag: Hashable, payload: Any) -> None:
        """Blocking send (completes as soon as the payload is buffered)."""
        self.isend(dest, tag, payload).wait()

    def recv(
        self, source: int, tag: Hashable, timeout: float | None = None
    ) -> Any:
        """Blocking receive of the message with exactly (source, tag)."""
        return self.irecv(source, tag).wait(timeout)

    def sendrecv(
        self,
        dest: int,
        send_payload: Any,
        source: int,
        tag: Hashable,
    ) -> Any:
        """Send to *dest* and receive from *source* under the same tag —
        the boundary-exchange primitive of Figure 2 (lines 8 and 14)."""
        self.isend(dest, tag, send_payload)
        return self.recv(source, tag)

    def exchange_with_neighbours(
        self,
        left_payload: Any,
        right_payload: Any,
        tag: Hashable,
    ) -> tuple[Any | None, Any | None]:
        """Exchange with both linear-array neighbours at once.

        Sends *left_payload* to rank-1 and *right_payload* to rank+1 (when
        they exist), then receives from both.  Returns
        ``(from_left, from_right)`` with ``None`` at array ends.
        """
        left = self.rank - 1 if self.rank > 0 else None
        right = self.rank + 1 if self.rank < self.size - 1 else None
        if left is not None:
            self.send(left, tag, left_payload)
        if right is not None:
            self.send(right, tag, right_payload)
        from_left = self.recv(left, tag) if left is not None else None
        from_right = self.recv(right, tag) if right is not None else None
        return from_left, from_right

    # ---------------------------------------------------------- collectives
    @abstractmethod
    def barrier(self) -> None:
        """Block until every rank entered the barrier."""

    def allgather(self, payload: Any, tag: Hashable) -> list[Any]:
        """Gather one payload from every rank, in rank order, at every
        rank (the global scheme's information exchange)."""
        for dest in range(self.size):
            if dest != self.rank:
                self.send(dest, ("allgather", tag), payload)
        return [
            payload if source == self.rank else self.recv(source, ("allgather", tag))
            for source in range(self.size)
        ]
