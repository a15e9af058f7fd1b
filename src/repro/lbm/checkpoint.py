"""Checkpointing: save and restore a solver's full state.

The paper's production runs take days to weeks; any such code needs
restartability.  A checkpoint stores the populations (the complete state
— moments and forces are derived) plus enough configuration fingerprint
to refuse restoring into an incompatible solver.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ckpt.io import atomic_savez
from repro.lbm.solver import LBMConfig, MulticomponentLBM

#: Bumped when the on-disk layout changes.
CHECKPOINT_FORMAT = 1


def _config_fingerprint(config: LBMConfig) -> dict:
    """The compatibility-relevant part of a configuration."""
    return {
        "format": CHECKPOINT_FORMAT,
        "lattice": config.lattice.name,
        "shape": list(config.geometry.shape),
        "wall_axes": list(config.geometry.wall_axes),
        "wall_thickness": config.geometry.wall_thickness,
        "components": [
            {"name": c.name, "tau": c.tau, "mass": c.mass}
            for c in config.components
        ],
    }


def save_checkpoint(solver: MulticomponentLBM, path: str | Path) -> None:
    """Write the solver state to *path* (``.npz``)."""
    path = Path(path)
    meta = _config_fingerprint(solver.config)
    atomic_savez(
        path,
        f=solver.f,
        step_count=np.int64(solver.step_count),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )


def load_checkpoint(solver: MulticomponentLBM, path: str | Path) -> None:
    """Restore the state saved by :func:`save_checkpoint` into *solver*.

    Raises ``ValueError`` if the checkpoint was written by an incompatible
    configuration (different lattice, grid, or components).
    """
    path = Path(path)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        expected = _config_fingerprint(solver.config)
        if meta != expected:
            raise ValueError(
                f"checkpoint incompatible with this solver:\n"
                f"  checkpoint: {meta}\n  solver:     {expected}"
            )
        solver.restore_state(data["f"], int(data["step_count"]))


def roundtrip_equal(a: MulticomponentLBM, b: MulticomponentLBM) -> bool:
    """True when two solvers hold bitwise-identical states (test helper)."""
    return (
        a.step_count == b.step_count
        and bool(np.array_equal(a.f, b.f))
        and bool(np.array_equal(a.rho, b.rho))
    )
