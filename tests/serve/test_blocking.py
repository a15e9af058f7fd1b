"""``repro.serve.blocking.run_blocking``: the kept event loop behind
``serve_many`` and ``run_sweep(via="serve")``.

A served call in steady state builds no loop and starts no thread, yet
each call still runs in its caller's context, two threads can call at
once, a fork inherits neither the loops' threads nor a loop, and a
failed call's leftover tasks are cancelled as ``asyncio.run`` does.
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.serve.blocking as blocking
import repro.serve.scheduler as scheduler
from repro.api import run
from repro.serve import serve_many
from repro.serve.blocking import run_blocking
from repro.sweep import run_sweep

from tests.serve.test_lifetime import small_sweep
from tests.serve.test_scheduler import spec_with_amplitude

SRC = Path(__file__).resolve().parents[2] / "src"
LABEL: contextvars.ContextVar[str] = contextvars.ContextVar("label", default="unset")


def serve_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("repro-serve")}


def sample_bits(result) -> list[tuple]:
    return [(s.slip, s.apparent_slip, s.steps, s.error) for s in result.samples]


class TestSteadyState:
    def test_warm_calls_build_no_loop_and_start_no_thread_per_call(self, monkeypatch):
        specs = [spec_with_amplitude(a) for a in (0.03, 0.05, 0.07)]
        calls = 20
        for _ in range(2):
            serve_many(specs, workers=2)
            run_sweep(small_sweep(), via="serve", workers=2)
        loops, starts = [], []
        new_event_loop, start = asyncio.new_event_loop, threading.Thread.start

        def counting_loops():
            loops.append(None)
            return new_event_loop()

        def counting_starts(thread):
            starts.append(thread.name)
            return start(thread)

        monkeypatch.setattr(asyncio, "new_event_loop", counting_loops)
        monkeypatch.setattr(threading.Thread, "start", counting_starts)
        for _ in range(calls // 2):
            serve_many(specs, workers=2)
            run_sweep(small_sweep(), via="serve", workers=2)
        assert loops == []
        # asyncio.run starts two threads a call (an executor thread and
        # its shutdown thread); a kept executor at most grows to its
        # bound, when a job is handed over before a finished thread
        # has reported itself idle.
        assert len(starts) <= min(32, (os.cpu_count() or 1) + 4) < 2 * calls


class TestContext:
    def test_each_call_sees_its_callers_context_in_the_worker(self, monkeypatch):
        seen = []

        def recording(spec):
            seen.append((LABEL.get(), np.geterr()["over"]))
            return run(spec)

        monkeypatch.setattr(scheduler, "run", recording)
        spec = spec_with_amplitude(0.04)
        for label, over in (("first", "ignore"), ("second", "raise")):
            token = LABEL.set(label)
            try:
                with np.errstate(over=over):
                    serve_many([spec], workers=1, retries=0)
            finally:
                LABEL.reset(token)
        assert seen == [("first", "ignore"), ("second", "raise")]

    def test_a_call_does_not_leak_its_context_to_the_next(self):
        seen = []

        async def setting() -> None:
            LABEL.set("set inside")
            seen.append(await asyncio.to_thread(LABEL.get))

        async def reading() -> None:
            seen.append(await asyncio.to_thread(LABEL.get))

        run_blocking(setting())
        run_blocking(reading())
        assert seen == ["set inside", "unset"]
        assert LABEL.get() == "unset"


class TestThreads:
    def test_two_threads_sweep_at_once(self):
        spec = small_sweep()
        expected = sample_bits(run_sweep(spec, via="serve", workers=2))
        barrier = threading.Barrier(2)
        got: list[list[tuple]] = []

        def client() -> None:
            barrier.wait()
            got.append(sample_bits(run_sweep(spec, via="serve", workers=2)))

        clients = [threading.Thread(target=client) for _ in range(2)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in clients)
        assert got == [expected, expected]

    def test_no_loop_is_run_by_two_callers_at_once(self):
        """Eight callers on a two-core box, switching threads every
        microsecond: each call gets a loop nobody else is running, and
        every pooled loop is pooled once."""
        running: set[int] = set()
        lock = threading.Lock()
        clashes, done = [], []

        async def main(i: int) -> None:
            loop = id(asyncio.get_running_loop())
            with lock:
                clashes.extend([loop] if loop in running else [])
                running.add(loop)
            try:
                done.append(await asyncio.to_thread(pow, i, 2) == i * i)
            finally:
                with lock:
                    running.discard(loop)

        def client(k: int) -> None:
            for i in range(25):
                run_blocking(main(k * 100 + i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in clients)
        assert clashes == []
        assert done == [True] * 200
        assert len({id(slot) for slot in blocking._idle}) == len(blocking._idle)


class TestFork:
    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_serve_fork_serve(self):
        specs = [spec_with_amplitude(a) for a in (0.03, 0.05)]
        first = serve_many(specs, workers=2)
        assert serve_threads()  # the kept loop's executor is warm
        forked = run(dataclasses.replace(specs[0], ranks=2, transport="processes"))
        # The fork joined the idle loops' threads and dropped the loops.
        assert serve_threads() == set()
        second = serve_many(specs, workers=2)
        for a, b in zip(first, second):
            assert np.array_equal(a.f, b.f)
        assert np.array_equal(forked.f, first[0].f)

    def test_a_forked_child_keeps_no_loop_of_its_parent(self):
        serve_many([spec_with_amplitude(0.03)], workers=1)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through the pipe
            os.close(read)
            os.write(write, b"%d" % len(blocking._idle))
            os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            idle_in_child = int(pipe.read())
        os.waitpid(pid, 0)
        assert idle_in_child == 0


class TestLeftovers:
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_a_failed_or_interrupted_call_cancels_the_tasks_it_left(self, error):
        cancelled = []

        async def lingering() -> None:
            try:
                await asyncio.sleep(60)
            except asyncio.CancelledError:
                cancelled.append(True)
                raise

        async def failing() -> None:
            asyncio.get_running_loop().create_task(lingering())
            await asyncio.sleep(0)
            raise error("boom")

        with pytest.raises(error, match="boom"):
            run_blocking(failing())
        assert cancelled == [True]
        done = []

        async def fine() -> None:
            done.append(await asyncio.to_thread(sum, [1, 2]))

        run_blocking(fine())  # the loop went back to the pool intact
        assert done == [3]

    def test_refused_inside_a_running_loop(self):
        async def nested() -> None:
            inner = asyncio.sleep(0)
            with pytest.raises(RuntimeError, match="running event loop"):
                run_blocking(inner)

        asyncio.run(nested())


def test_no_unclosed_loop_warning_at_exit():
    code = (
        "import asyncio\n"
        "from repro.serve.blocking import run_blocking\n"
        "async def main():\n"
        "    await asyncio.to_thread(int)\n"
        "run_blocking(main())\n"
        "run_blocking(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
