"""The paper's contribution: filtered dynamic remapping of lattice points.

The remapping machinery is written as pure functions over per-node state
(point counts + phase-time histories), so the *same* policy code drives
both the virtual-time cluster simulator (:mod:`repro.cluster`) and the real
in-process parallel LBM driver (:mod:`repro.parallel.driver`).
"""

from repro.core.history import PhaseTimeHistory
from repro.core.prediction import (
    Predictor,
    HarmonicMeanPredictor,
    LastPhasePredictor,
)
from repro.core.partition import SlicePartition
from repro.core.exchange import window_targets, desired_transfer
from repro.core.policies import (
    RemappingConfig,
    RemappingPolicy,
    NoRemappingPolicy,
    ConservativePolicy,
    FilteredPolicy,
    GlobalPolicy,
    DiffusionPolicy,
    window_proposal,
    make_policy,
    POLICY_NAMES,
)
from repro.core.remapper import Remapper, RemapDecision

__all__ = [
    "PhaseTimeHistory",
    "Predictor",
    "HarmonicMeanPredictor",
    "LastPhasePredictor",
    "SlicePartition",
    "window_targets",
    "desired_transfer",
    "RemappingConfig",
    "RemappingPolicy",
    "NoRemappingPolicy",
    "ConservativePolicy",
    "FilteredPolicy",
    "GlobalPolicy",
    "DiffusionPolicy",
    "window_proposal",
    "make_policy",
    "POLICY_NAMES",
    "Remapper",
    "RemapDecision",
]
