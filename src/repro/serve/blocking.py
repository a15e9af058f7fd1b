"""Blocking entry into the serve tier, on event loops kept across calls.

``asyncio.run`` builds an event loop per call, starts its executor's
threads for the call's ``to_thread`` work and spawns one more thread to
shut them down.  :func:`run_blocking` takes an idle loop, with its
executor, from a pool instead: a call in steady state builds no loop and
starts no thread, and two threads calling at once take two loops.

Before a fork the idle loops are closed and their threads joined (Python
3.12 warns on forking a multi-threaded process), so a child inherits no
loop to reuse; a loop in use by another caller is left alone.
"""

from __future__ import annotations

import asyncio
import atexit
import os
import threading
import time
from collections.abc import Coroutine
from concurrent.futures import ThreadPoolExecutor
from typing import Any


class _Loop:
    """An event loop and the executor its ``to_thread`` calls run on."""

    def __init__(self) -> None:
        self.threads: set[int] = set()  # the executor's, as they start
        self.executor = ThreadPoolExecutor(
            thread_name_prefix="repro-serve", initializer=_enlist, initargs=(self.threads,)
        )
        self.loop = asyncio.new_event_loop()
        self.loop.set_default_executor(self.executor)

    def close(self, *, join: bool) -> None:
        self.loop.close()  # shuts the executor down without waiting
        if join:
            self.executor.shutdown(wait=True)


def _enlist(threads: set[int]) -> None:
    threads.add(threading.get_ident())


_idle: list[_Loop] = []
_lock = threading.Lock()
#: A forked child's copies of loops pushed back while its parent forked.
#: Closing one would unregister the parent's self-pipe from the epoll
#: instance the two share, so the child keeps them and never runs them.
_inherited: list[_Loop] = []


def run_blocking(main: Coroutine[Any, Any, None]) -> None:
    """Run *main* to completion on a kept event loop, as ``asyncio.run``
    would: in a copy of the caller's ``contextvars`` context (its task
    copies it), cancelling the tasks a failed or interrupted call leaves.
    *main* returns nothing; results leave through what it closes over."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        main.close()
        raise RuntimeError("run_blocking() cannot be called from a running event loop")
    with _lock:
        slot = _idle.pop() if _idle else None
    slot = slot or _Loop()
    try:
        slot.loop.run_until_complete(main)
    finally:
        try:
            _cancel_leftovers(slot.loop)
        except BaseException:
            slot.close(join=False)
            raise
        with _lock:
            _idle.append(slot)


def _cancel_leftovers(loop: asyncio.AbstractEventLoop) -> None:
    tasks = asyncio.all_tasks(loop)
    if not tasks:
        return
    for task in tasks:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            loop.call_exception_handler(
                {
                    "message": "unhandled exception during run_blocking() shutdown",
                    "exception": task.exception(),
                    "task": task,
                }
            )


def _close_idle() -> None:
    """Close every idle loop, joining its threads unless the calling
    thread is one of them (a served job forking its ranks)."""
    with _lock:
        idle = _idle[:]
        _idle.clear()
    if not idle:
        return
    me, alive = threading.get_ident(), {t.ident for t in threading.enumerate()}
    before, joined = _os_threads(), 0
    for slot in idle:
        join = me not in slot.threads
        joined += len(slot.threads & alive) if join else 0
        slot.close(join=join)
    # A joined thread takes a moment more to leave the kernel's count,
    # which is what CPython 3.12 reads when it warns on a fork.
    deadline = time.monotonic() + 0.1
    while joined and before is not None and time.monotonic() < deadline:
        now = _os_threads()
        if now is None or now <= before - joined:
            break
        time.sleep(1e-4)


def _os_threads() -> int | None:
    """The process's thread count as the kernel has it (Linux only)."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[17])
    except (OSError, ValueError, IndexError):
        return None


def _forget_in_child() -> None:
    global _lock
    _inherited.extend(_idle)
    _idle.clear()
    _lock = threading.Lock()  # another thread may have held it


os.register_at_fork(before=_close_idle, after_in_child=_forget_in_child)
atexit.register(_close_idle)
