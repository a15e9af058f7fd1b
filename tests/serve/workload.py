"""Spec streams for the serve tests: a small water/air channel and
near-duplicate submissions of it."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.api import RunSpec
from repro.lbm.components import ComponentSpec
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.util.rng import make_rng

#: Phases per spec: small enough that one unique spec completes in tens
#: of milliseconds, so scheduling rather than the solver dominates.
PHASES = 6


def base_config() -> LBMConfig:
    """The 12x18 water/air microchannel every stream spec varies from."""
    return LBMConfig(
        geometry=ChannelGeometry(shape=(12, 18), wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        wall_force=WallForceSpec(amplitude=0.05, decay_length=2.0),
        body_acceleration=(1e-6, 0.0),
    )


def make_workload(
    n_jobs: int, duplicate_fraction: float, *, seed: int
) -> list[RunSpec]:
    """A deterministic stream of *n_jobs* specs in which roughly
    *duplicate_fraction* of the submissions repeat an earlier spec.

    Unique specs sweep the hydrophobicity amplitude; duplicates are
    drawn uniformly from the uniques and the whole stream is shuffled,
    the way independent clients would interleave them.
    """
    rng = make_rng(seed)
    cfg = base_config()
    n_unique = max(1, round(n_jobs * (1.0 - duplicate_fraction)))
    uniques = [
        RunSpec(
            config=dataclasses.replace(
                cfg,
                wall_force=dataclasses.replace(cfg.wall_force, amplitude=float(a)),
            ),
            phases=PHASES,
        )
        for a in 0.02 + 0.08 * rng.random(n_unique)
    ]
    specs = list(uniques)
    while len(specs) < n_jobs:
        specs.append(uniques[int(rng.integers(len(uniques)))])
    return [specs[i] for i in rng.permutation(len(specs))]
