"""What keeps a result alive: its populations and their mixture
velocity, and nothing of the solver that produced them.

``_run_sequential`` used to hand the live solver to its ``RunResult``,
so every result a caller (or the serve tier's ``ResultCache``) kept also
kept a kernel backend's scratch pool — about 0.75 MB of ``fused``
buffers beside a 0.2 MB ``f`` on the 32x48 channel used here — and
``channel_seq``'s previous result held its 77 MB solver while the next
one was built.  ``RunResult.solver()`` rebuilds the solver on demand,
for every kind of result.  Sequential and batched results also carry
the final velocity, ``D / (C * Q)`` of ``f``; a parallel result derives
it when asked.  A parallel result's rank records keep their metadata
but not their slabs: its global ``f`` is the only copy of the
populations, on either transport.
"""

from __future__ import annotations

import dataclasses
import gc
import types

import numpy as np
import pytest

from repro.api import RunSpec, run, run_batch, spec_fingerprint
from repro.lbm.backends import KernelBackend
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.solver import MulticomponentLBM
from repro.serve import ResultCache

PHASES = 3
#: Lattice tables, the geometry, the spec: what a result may hold beside
#: its populations.
SMALL = 64 * 1024

_CODE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def reachable(root) -> list[object]:
    """Every object reachable from *root*, code objects aside."""
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _CODE):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def carried_velocity_bytes(result) -> int:
    """What the run hands over beside ``f``: its velocity ``(D, *S)``,
    unless the result is a parallel one."""
    if result.rank_results:
        return 0
    return result.config.lattice.D * result.f[0, 0].nbytes


def array_bytes(objects) -> int:
    """Bytes of the array buffers among *objects* (a view's buffer is
    counted once, at the array that owns it)."""
    return sum(
        a.nbytes for a in objects if isinstance(a, np.ndarray) and a.base is None
    )


@pytest.fixture
def spec(two_component_config) -> RunSpec:
    config = dataclasses.replace(
        two_component_config,
        geometry=ChannelGeometry(shape=(32, 48), wall_axes=(1,)),
    )
    return RunSpec(config=config, phases=PHASES)


def sequential(spec):
    return run(spec)


def parallel(spec):
    return run(dataclasses.replace(spec, ranks=2, transport="threads"))


def forked(spec):
    return run(dataclasses.replace(spec, ranks=2, transport="processes"))


def batched(spec):
    other = dataclasses.replace(
        spec.config,
        wall_force=dataclasses.replace(spec.config.wall_force, amplitude=0.07),
    )
    return run_batch([spec, dataclasses.replace(spec, config=other)])[0]


@pytest.mark.parametrize("produce", [sequential, parallel, forked, batched])
def test_a_result_holds_its_populations_and_no_solver(spec, produce):
    result = produce(spec)
    held = reachable(result)
    pinned = [o for o in held if isinstance(o, (KernelBackend, MulticomponentLBM))]
    assert pinned == []
    if result.rank_results:
        assert all(r.f_interior is None for r in result.rank_results)
    least = result.f.nbytes + carried_velocity_bytes(result)
    assert least <= array_bytes(held) <= least + SMALL

    # The solver is built when asked for, equals the run's final state,
    # and only then does the result carry one.
    solver = result.solver()
    assert solver.step_count == PHASES
    assert np.array_equal(solver.f, result.f) and solver.f is not result.f
    assert result.solver() is solver
    assert array_bytes(reachable(result)) > 3 * result.f.nbytes


def test_a_cache_of_sequential_results_grows_by_their_populations(spec):
    cache = ResultCache(16)
    empty = array_bytes(reachable(cache))
    n, kept_bytes = 6, 0
    for i in range(n):
        wall = dataclasses.replace(spec.config.wall_force, amplitude=0.02 + 0.01 * i)
        job = dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, wall_force=wall)
        )
        result = run(job)
        kept_bytes = result.f.nbytes + carried_velocity_bytes(result)
        cache.put(spec_fingerprint(job), result)
    assert len(cache) == n
    grown = array_bytes(reachable(cache)) - empty
    assert n * kept_bytes <= grown <= n * (kept_bytes + SMALL)
