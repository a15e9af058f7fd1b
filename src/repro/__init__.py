"""repro — reproduction of "Parallel Simulation of Fluid Slip in a
Microchannel" (Zhou, Zhu, Petzold, Yang; IPDPS 2004).

Subpackages
-----------
- :mod:`repro.lbm` — multicomponent Shan-Chen lattice Boltzmann solver
  with hydrophobic wall forces (the paper's physics).
- :mod:`repro.core` — filtered dynamic remapping of lattice points (the
  paper's systems contribution) plus the baselines it is compared against.
- :mod:`repro.parallel` — MPI-like in-process message-passing substrate
  and the slice-decomposed parallel LBM driver.
- :mod:`repro.cluster` — virtual-time non-dedicated-cluster simulator
  used to regenerate the performance evaluation.
- :mod:`repro.experiments` — one harness per table/figure of the paper.
- :mod:`repro.api` — the unified run facade: build a :class:`RunSpec`,
  call :func:`repro.api.run`, get a :class:`RunResult` — sequential or
  parallel, threads or processes.

The most common entry points are re-exported here.
"""

from repro.core import (
    FilteredPolicy,
    GlobalPolicy,
    ConservativePolicy,
    NoRemappingPolicy,
    POLICY_NAMES,
    RemappingConfig,
    Remapper,
    SlicePartition,
    make_policy,
)
from repro.lbm import (
    ChannelGeometry,
    ComponentSpec,
    LBMConfig,
    MulticomponentLBM,
    WallForceSpec,
    apparent_slip_fraction,
    density_profile,
    slip_fraction,
    velocity_profile,
)
from repro.cluster import (
    ClusterSpec,
    PhaseSimulator,
    dedicated_traces,
    duty_cycle_trace,
    fixed_slow_traces,
    transient_spike_traces,
)
from repro.parallel import CommunicatorTimeout
from repro.api import EnsembleRunResult, RunResult, RunSpec, run, run_batch

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "FilteredPolicy",
    "GlobalPolicy",
    "ConservativePolicy",
    "NoRemappingPolicy",
    "POLICY_NAMES",
    "RemappingConfig",
    "Remapper",
    "SlicePartition",
    "make_policy",
    # lbm
    "ChannelGeometry",
    "ComponentSpec",
    "LBMConfig",
    "MulticomponentLBM",
    "WallForceSpec",
    "apparent_slip_fraction",
    "density_profile",
    "slip_fraction",
    "velocity_profile",
    # cluster
    "ClusterSpec",
    "PhaseSimulator",
    "dedicated_traces",
    "duty_cycle_trace",
    "fixed_slow_traces",
    "transient_spike_traces",
    # parallel
    "CommunicatorTimeout",
    # api
    "EnsembleRunResult",
    "RunSpec",
    "RunResult",
    "run",
    "run_batch",
]
