"""The fused kernels' bound call lists (``repro.lbm.backends.fused``,
module docstring item 7): a steady-state step binds nothing, and every
path that rebinds a state array -- ``restore_state``, an ensemble
repack -- continues bit-identically to a run that never held a list
bound to the old array."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.lbm.backends import FusedBackend
from repro.lbm.ensemble import BatchedEnsemble
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import MulticomponentLBM

from .test_backends import two_component_config
from .test_ensemble import wall_sweep

# The step path replays NumPy calls bound once; a deprecated spelling
# among them (``np.maximum(a, b, out)`` in NumPy 2.4) must fail here.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

KERNELS = 5  # collide, stream, bounce-back, moments, forces+velocities


@pytest.mark.parametrize("scenario", ["walls", "obstacles", "adhesion"])
@pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=["D2Q9", "D3Q19"])
def test_steady_state_solver_step_binds_nothing(lattice, scenario):
    solver = MulticomponentLBM(two_component_config(lattice, scenario=scenario))
    solver.step()
    assert solver.backend.binds == KERNELS
    solver.run(4)
    assert solver.backend.binds == KERNELS


def test_steady_state_ensemble_step_binds_nothing():
    eng = BatchedEnsemble(wall_sweep(3))
    eng.step()
    assert eng.backend.binds == KERNELS
    for _ in range(4):
        eng.step()
    assert eng.backend.binds == KERNELS


def test_fresh_view_of_the_same_slab_replays_without_binding():
    """A caller that re-slices the same planes every call (a fresh view
    object each time) reuses the list; another slab binds a new one."""
    cfg = two_component_config(D3Q19, scenario="walls", shape=(10, 9, 7))
    solver = MulticomponentLBM(cfg)
    backend = FusedBackend(cfg, cfg.geometry.shape, solver.solid)
    sl = slice(4, 6)
    for _ in range(3):
        backend.moments(solver.f[:, :, sl], solver.rho[:, sl], solver.mom[:, :, sl])
    assert backend.binds == 1
    sl = slice(5, 7)
    backend.moments(solver.f[:, :, sl], solver.rho[:, sl], solver.mom[:, :, sl])
    assert backend.binds == 2


@pytest.mark.parametrize("scenario", ["walls", "adhesion"])
@pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=["D2Q9", "D3Q19"])
def test_restore_state_rebinds_and_continues_bit_identically(lattice, scenario):
    cfg = two_component_config(lattice, scenario=scenario)
    straight = MulticomponentLBM(cfg)
    straight.run(11)

    solver = MulticomponentLBM(cfg)
    solver.run(5)
    snapshot = solver.f.copy()
    solver.run(4)  # every list is bound to the f that restore replaces
    old_f, binds = solver.f, solver.backend.binds
    solver.restore_state(snapshot, 5)
    kept = old_f.copy()
    solver.run(6)

    assert np.array_equal(solver.f, straight.f)
    assert np.array_equal(old_f, kept), "a list still wrote the old f"
    assert solver.backend.binds > binds
    fresh = MulticomponentLBM(cfg, state=(snapshot, 5))
    fresh.run(6)
    assert np.array_equal(solver.f, fresh.f)


def test_ensemble_repack_continues_bit_identically():
    spec = wall_sweep(3, lo=0.01, hi=0.3)
    eng = BatchedEnsemble(spec)
    for _ in range(4):
        eng.step()
    old_backend = eng.backend
    eng._repack([0, 2])
    assert eng.backend is not old_backend
    for _ in range(5):
        eng.step()
    for row, member in enumerate((0, 2)):
        solo = MulticomponentLBM(spec.member_config(member))
        solo.run(9)
        assert np.array_equal(eng.f[:, :, row], solo.f), member


def test_retired_members_and_survivors_stay_exact():
    """Retirement through ``run`` (snapshot, then repack) on the stepping
    engine: every member equals its stand-alone run at its own step."""
    spec = dataclasses.replace(wall_sweep(3, lo=0.01, hi=0.3), check_every=10, tol=5e-5)
    eng = BatchedEnsemble(spec)
    result = eng.run(200)
    assert len({m.steps for m in result.members}) > 1, "nothing retired early"
    for i, member in enumerate(result.members):
        solo = MulticomponentLBM(spec.member_config(i))
        solo.run(member.steps)
        assert np.array_equal(member.f, solo.f), i
