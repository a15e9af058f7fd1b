"""Process-backed communicator: real multi-core parallelism.

Each rank is an OS process (forked, so the SPMD closure and the config
are inherited, never pickled) and bulk payloads travel through
``multiprocessing.shared_memory`` instead of being serialized:

- Per ordered rank pair there is one :class:`_Link` — a one-way channel
  made of a duplex-free pipe for small *headers* (tag, payload kind,
  array shape/dtype) plus a fixed ring of preallocated shared-memory
  slots through which ndarray bytes move.  Sending a halo plane is one
  ``memcpy`` into the next free slot; receiving is one ``memcpy`` out.
  No pickling of array data, no per-message allocation on the send side.
- Flow control is a classic bounded-buffer semaphore pair per link
  (``free`` acquired before writing a slot, ``filled`` released after).
  Because each link has exactly one sender and one receiver process,
  both sides track the ring position with a plain local counter.
- Payloads larger than one slot (plane-migration packages) are chunked
  across consecutive slots.  Non-array payloads (tags vote strings,
  remap proposals, ``None``) ride the header pipe pickled; large pickles
  overflow into the ring as raw bytes.

The semantics mirror :class:`repro.parallel.threads.ThreadCommunicator`
exactly — tagged (source, tag) addressing with an out-of-order stash,
barrier, allgather — so the lock-step LBM protocol, remapping migrations
and checkpoint collectives run unchanged on either transport.  The one
observable difference is ownership: a received array is always a fresh
private copy (threads hand over the sender's object itself), which is
strictly safer.

A received-side timeout raises the same
:class:`~repro.parallel.api.CommunicatorTimeout` as the thread
transport, naming rank, peer and tag.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import time
from collections import defaultdict
from collections.abc import Callable
from multiprocessing import shared_memory
from typing import Any, Hashable

import numpy as np

from repro.parallel.api import (
    DEFAULT_RECV_TIMEOUT,
    Communicator,
    CommunicatorTimeout,
    Request,
)
from repro.util.validation import check_integer

#: Default byte size of one shared-memory ring slot.  Launchers that
#: know the physics (the parallel driver) pass the exact plane size so a
#: halo message is a single-chunk transfer.
DEFAULT_SLOT_BYTES = 1 << 18

#: Slots per link ring.  One sender/one receiver per link, so a small
#: ring already decouples the two sides across a whole phase.
SLOTS_PER_LINK = 8

#: Pickled control payloads up to this size travel inside the header
#: pipe; larger ones are chunked through the shared-memory ring (an OS
#: pipe write blocks past ~64 KiB, which could deadlock two ranks doing
#: simultaneous large sends).
PIPE_PAYLOAD_LIMIT = 32 * 1024

#: Header kinds.
_KIND_INLINE = 0  # payload pickled inside the header itself
_KIND_ARRAY = 1  # ndarray bytes follow through the ring
_KIND_PICKLE = 2  # oversized pickle bytes follow through the ring

#: Where ranks stage their results' array buffers, one file per rank.
_SHM_DIR = "/dev/shm"
#: Per-process run counter; with the pid it names a run's result files.
_RUNS = itertools.count()


def _remaining(deadline: float | None) -> float | None:
    if deadline is None:
        return None
    return max(0.0, deadline - time.perf_counter())


class _Link:
    """One-way rank-to-rank channel: header pipe + shm slot ring.

    Created by the parent before forking; both endpoint processes
    inherit the same pipe connections, shared-memory segment and
    semaphores.  ``_sent``/``_received`` are per-process ring cursors —
    after the fork each side advances only its own copy, and the
    single-producer/single-consumer discipline keeps them in lock step.
    """

    def __init__(self, ctx, slot_bytes: int, slots: int):
        self.slot_bytes = slot_bytes
        self.slots = slots
        self.recv_conn, self.send_conn = ctx.Pipe(duplex=False)
        self.shm = shared_memory.SharedMemory(
            create=True, size=slot_bytes * slots
        )
        self._buf = np.frombuffer(self.shm.buf, dtype=np.uint8)
        self.free_slots = ctx.BoundedSemaphore(slots)
        self.filled_slots = ctx.Semaphore(0)
        self._sent = 0
        self._received = 0

    # --------------------------------------------------------------- bytes
    def push_bytes(self, data: memoryview) -> None:
        """Copy *data* into the ring, chunked across slots, blocking on
        ``free_slots`` (classic bounded buffer; the receiver frees)."""
        size = self.slot_bytes
        nbytes = len(data)
        offset = 0
        while offset < nbytes:
            self.free_slots.acquire()
            slot = (self._sent % self.slots) * size
            chunk = data[offset : offset + size]
            self._buf[slot : slot + len(chunk)] = np.frombuffer(
                chunk, dtype=np.uint8
            )
            self._sent += 1
            offset += size
            self.filled_slots.release()

    def pull_bytes(
        self,
        out: memoryview,
        nbytes: int,
        deadline: float | None,
        on_timeout: Callable[[], CommunicatorTimeout],
    ) -> None:
        """Copy *nbytes* from the ring into *out*, chunk by chunk."""
        size = self.slot_bytes
        offset = 0
        while offset < nbytes:
            if not self.filled_slots.acquire(timeout=_remaining(deadline)):
                raise on_timeout()
            slot = (self._received % self.slots) * size
            take = min(size, nbytes - offset)
            out[offset : offset + take] = self._buf[slot : slot + take]
            self._received += 1
            offset += take
            self.free_slots.release()

    # ------------------------------------------------------------- cleanup
    def destroy(self) -> None:
        """Parent-side teardown: close both pipe ends, unmap and unlink
        the shared-memory segment (idempotent)."""
        self._buf = None
        self.recv_conn.close()
        self.send_conn.close()
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double destroy
            pass


class _ProcessWorld:
    """The inherited fabric of one process world: all links + barrier."""

    def __init__(self, size: int, ctx, slot_bytes: int, slots: int):
        self.size = size
        self.links = {
            (src, dst): _Link(ctx, slot_bytes, slots)
            for src in range(size)
            for dst in range(size)
            if src != dst
        }
        self.barrier = ctx.Barrier(size)

    def link(self, src: int, dst: int) -> _Link:
        return self.links[(src, dst)]

    def destroy(self) -> None:
        for link in self.links.values():
            link.destroy()


class ProcessCommunicator(Communicator):
    """One rank's endpoint in a :class:`_ProcessWorld`.

    Same addressing contract as the thread transport: every receive
    names its exact (source, tag); out-of-order arrivals on the same
    link are parked in a stash keyed by tag.
    """

    shares_interpreter = False  # each rank is its own process

    def __init__(self, world: _ProcessWorld, rank: int):
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

    # ---------------------------------------------------------------- send
    def isend(self, dest: int, tag: Hashable, payload: Any) -> Request:
        # Headers and ring chunks are pushed synchronously — bounded only
        # by ring back-pressure, never by the receiver's recv posting —
        # so the send is buffered and the request completes eagerly.
        self._check_peer(dest)
        link = self._world.link(self._rank, dest)
        if isinstance(payload, np.ndarray):
            data = np.ascontiguousarray(payload)
            link.send_conn.send(
                (_KIND_ARRAY, tag, data.shape, data.dtype.str, data.nbytes)
            )
            link.push_bytes(memoryview(data).cast("B"))
            return Request.completed()
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if len(blob) <= PIPE_PAYLOAD_LIMIT:
            link.send_conn.send((_KIND_INLINE, tag, blob))
        else:
            link.send_conn.send((_KIND_PICKLE, tag, len(blob)))
            link.push_bytes(memoryview(blob))
        return Request.completed()

    # ---------------------------------------------------------------- recv
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
        link = self._world.link(source, self._rank)
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        while True:
            got_tag, payload = self._next_message(
                link, source, tag, timeout, deadline
            )
            if got_tag == tag:
                return payload
            self._stash[(source, got_tag)].append(payload)

    def _next_message(
        self,
        link: _Link,
        source: int,
        want_tag: Hashable,
        timeout: float | None,
        deadline: float | None,
    ) -> tuple[Hashable, Any]:
        """The next whole message from *link* (header + ring chunks)."""

        def timed_out() -> CommunicatorTimeout:
            return CommunicatorTimeout(
                self._rank,
                source,
                want_tag,
                0.0 if timeout is None else timeout,
                transport="processes",
            )

        if not link.recv_conn.poll(_remaining(deadline)):
            raise timed_out()
        header = link.recv_conn.recv()
        kind, tag = header[0], header[1]
        if kind == _KIND_INLINE:
            return tag, pickle.loads(header[2])
        if kind == _KIND_ARRAY:
            _, _, shape, dtype_str, nbytes = header
            out = np.empty(shape, dtype=np.dtype(dtype_str))
            link.pull_bytes(
                memoryview(out).cast("B"), nbytes, deadline, timed_out
            )
            return tag, out
        if kind == _KIND_PICKLE:
            raw = bytearray(header[2])
            link.pull_bytes(memoryview(raw), header[2], deadline, timed_out)
            return tag, pickle.loads(bytes(raw))
        raise RuntimeError(f"corrupt link header kind {kind!r}")

    # ---------------------------------------------------------- collective
    def barrier(self) -> None:
        self._world.barrier.wait()


def _layout(sizes: list[int]) -> tuple[list[int], int]:
    """Offsets of buffers of *sizes* bytes, each 64-byte aligned, and their total."""
    ends = list(itertools.accumulate(-(-n // 64) * 64 for n in sizes))
    return [0, *ends[:-1]], (ends[-1] if ends else 0)


def _export_result(value: Any, path: str) -> tuple[bytes, list[int]]:
    """Rank side: pickle *value* with its array buffers written out of
    band into the file *path*; return the rest of the pickle and the
    buffer sizes, which is all that rides the result queue."""
    buffers: list[pickle.PickleBuffer] = []
    blob = pickle.dumps(value, protocol=5, buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]
    sizes = [raw.nbytes for raw in raws]
    offsets, total = _layout(sizes)
    if total:  # O_TRUNC: only a dead process with our pid could own this name
        with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600), "wb") as fh:
            fh.truncate(total)
            for raw, offset in zip(raws, offsets):
                fh.seek(offset)
                fh.write(raw)
    return blob, sizes


def _import_result(blob: bytes, sizes: list[int], path: str) -> Any:
    """Parent side: map the rank's file, unlink it at once, unpickle over
    the mapping.  The arrays are views of it, unmapped with the last."""
    offsets, total = _layout(sizes)
    if not total:
        return pickle.loads(blob, buffers=[bytearray()] * len(sizes))
    fd = os.open(path, os.O_RDWR)
    try:
        os.unlink(path)
        view = memoryview(mmap.mmap(fd, total))
    finally:
        os.close(fd)
    return pickle.loads(blob, buffers=[view[o : o + n] for o, n in zip(offsets, sizes)])


def _rank_entry(world, rank, fn, args, result_queue, segment):
    """Child-process main: run the SPMD function, report exactly one
    ``(kind, rank, payload)`` record: the result staged through the file
    *segment*, or an error's ``repr`` — exception objects with custom
    constructors (``InjectedFault``) do not survive pickling, and the
    parent only needs the text."""
    comm = ProcessCommunicator(world, rank)
    try:
        record = ("ok", rank, _export_result(fn(comm, *args), segment))
    except BaseException as exc:  # propagate to the parent as text
        record = ("err", rank, repr(exc))
    result_queue.put(record)


class ProcessCluster:
    """Spawns *size* rank processes running one SPMD function.

    Mirrors :class:`repro.parallel.threads.LocalCluster`: the function
    receives ``(comm, *rank_args)``, per-rank return values come back in
    rank order, the first failing rank is re-raised in the parent as
    ``RuntimeError("rank N failed: ...")``.  Differences inherent to
    processes:

    - the world's shared-memory segments are finite OS resources, so a
      cluster runs **once** and tears its fabric down in ``finally``;
    - a returned array crosses back in a ``/dev/shm`` file per rank that
      the parent maps (the array is a view of it) and unlinks at once;
      only a small pickle rides the result queue;
    - on the first rank failure the remaining ranks are terminated
      (their peers would otherwise sit in 60 s receive timeouts), and a
      rank that dies without reporting — ``kill -9``, ``os._exit`` — is
      detected by liveness polling rather than hanging the join.

    Requires the ``fork`` start method (the SPMD closure, config and
    fault plan are inherited, not pickled); unavailable on platforms
    without it.
    """

    def __init__(
        self,
        size: int,
        *,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        slots: int = SLOTS_PER_LINK,
    ):
        self.size = check_integer(size, "size", minimum=1)
        check_integer(slot_bytes, "slot_bytes", minimum=1)
        check_integer(slots, "slots", minimum=2)
        self._ctx = mp.get_context("fork")
        self._world = _ProcessWorld(self.size, self._ctx, slot_bytes, slots)
        self._spent = False

    def run(
        self,
        fn: Callable[..., Any],
        *,
        rank_args: list[tuple] | None = None,
        timeout: float | None = 300.0,
    ) -> list[Any]:
        if self._spent:
            raise RuntimeError(
                "this ProcessCluster already ran; its shared-memory world "
                "is torn down — build a new cluster per run"
            )
        self._spent = True
        stem = f"{_SHM_DIR}/repro-result-{os.getpid()}-{next(_RUNS)}"
        segments = [f"{stem}-{rank}" for rank in range(self.size)]
        result_queue = self._ctx.Queue()
        procs = []
        try:
            for rank in range(self.size):
                args = rank_args[rank] if rank_args is not None else ()
                proc = self._ctx.Process(
                    target=_rank_entry,
                    args=(self._world, rank, fn, args, result_queue, segments[rank]),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            results, failure = self._collect(procs, result_queue, segments, timeout)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=10.0)
            result_queue.close()
            self._world.destroy()
            for path in segments:  # results staged but never collected
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)
        if failure is not None:
            rank, desc = failure
            raise RuntimeError(f"rank {rank} failed: {desc}")
        return results

    def _collect(
        self,
        procs: list,
        result_queue,
        segments: list[str],
        timeout: float | None,
    ) -> tuple[list[Any], tuple[int, str] | None]:
        """Drain one record per rank; stop early on the first failure or
        on a silently-dead child."""
        results: list[Any] = [None] * self.size
        pending = set(range(self.size))
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        suspect_dead = False
        while pending:
            try:
                grace = 0.5 if suspect_dead else 0.2
                kind, rank, payload = result_queue.get(timeout=grace)
            except queue_mod.Empty:
                dead = [
                    r for r in sorted(pending) if not procs[r].is_alive()
                ]
                if dead and suspect_dead:
                    # Second consecutive empty poll with the same dead
                    # child: nothing more is coming from it.
                    code = procs[dead[0]].exitcode
                    return results, (
                        dead[0],
                        f"rank process died (exitcode {code}) without "
                        "reporting a result",
                    )
                suspect_dead = bool(dead)
                if (
                    deadline is not None
                    and time.perf_counter() >= deadline
                ):
                    raise TimeoutError(
                        "a rank process failed to finish (deadlock?)"
                    )
                continue
            suspect_dead = False
            pending.discard(rank)
            if kind == "err":
                return results, (rank, payload)
            results[rank] = _import_result(*payload, segments[rank])
        return results, None

