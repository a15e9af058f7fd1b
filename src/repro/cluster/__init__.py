"""Virtual-time cluster simulator: the evaluation substrate.

The paper ran on a 32-node Linux cluster (dual 2.6 GHz Xeon, gigabit
Ethernet) shared with background jobs.  This package replaces that
hardware with a deterministic model: per-node CPU-availability traces, a
neighbour-synchronized phase engine mirroring the parallel LBM's
communication structure, and a network cost model with CPU-contention
("sluggish communication") penalties.  The remapping policies from
:mod:`repro.core` run unchanged inside the engine.  The experiments
runner drives it (Figs 3 and 8-10, Table 1, ext-heterogeneous,
ext-adaptation); it has no command line of its own.
"""

from repro.cluster.trace import AvailabilityTrace, TraceCursor
from repro.cluster.workload import (
    dedicated_traces,
    fixed_slow_traces,
    duty_cycle_trace,
    heterogeneous_traces,
    transient_spike_traces,
)
from repro.cluster.costmodel import PhaseCostModel, PAPER_COST_MODEL
from repro.cluster.machine import ClusterSpec
from repro.cluster.simulator import PhaseSimulator, SimulationResult
from repro.cluster.profile import NodeProfile
from repro.cluster.metrics import (
    speedup,
    normalized_efficiency,
    slowdown_ratio,
    sequential_time,
)

__all__ = [
    "AvailabilityTrace",
    "TraceCursor",
    "dedicated_traces",
    "fixed_slow_traces",
    "duty_cycle_trace",
    "heterogeneous_traces",
    "transient_spike_traces",
    "PhaseCostModel",
    "PAPER_COST_MODEL",
    "ClusterSpec",
    "PhaseSimulator",
    "SimulationResult",
    "NodeProfile",
    "speedup",
    "normalized_efficiency",
    "slowdown_ratio",
    "sequential_time",
]
