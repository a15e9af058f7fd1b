"""repro.sweep — Monte Carlo sweeps over wall-physics scenarios.

A :class:`SweepSpec` samples a :mod:`repro.scenarios` scenario's
parameters from uniform / discrete priors (plain MC or
Latin hypercube, seeded through :mod:`repro.util.rng`), compiles the
samples to :class:`repro.api.RunSpec` lists, and :func:`run_sweep`
serves them through a :mod:`repro.serve` scheduler — repeated samples
deduplicate for free, and compatible ones are stacked into batched
ensembles (:func:`repro.api.run_batch`) — then aggregates effective
slip per sample.  :mod:`repro.sweep.sensitivity`
adds a variance-based summary.  See
docs/SCENARIOS.md; served sweeps are measured by the end-to-end
benchmark's ``sweep_small`` workload (bench/README.md).
"""

from repro.sweep.distributions import Discrete, Distribution, Uniform
from repro.sweep.engine import SampleResult, SweepResult, run_sweep
from repro.sweep.sensitivity import variance_sensitivity
from repro.sweep.spec import SweepParameter, SweepSpec

__all__ = [
    "Discrete",
    "Distribution",
    "SampleResult",
    "SweepParameter",
    "SweepResult",
    "SweepSpec",
    "Uniform",
    "run_sweep",
    "variance_sensitivity",
]
