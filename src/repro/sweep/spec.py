"""``SweepSpec``: a declarative Monte Carlo sweep over scenario knobs.

A sweep is a base :class:`~repro.lbm.solver.LBMConfig` carrying a wall
scenario, a set of :class:`SweepParameter` distributions over that
scenario's fields, and a sampling plan (plain MC or Latin hypercube,
seeded through :mod:`repro.util.rng`).  Compiling it yields plain
:class:`repro.api.RunSpec` lists, which :func:`repro.sweep.run_sweep`
serves: :mod:`repro.serve` deduplicates repeated samples by content
address — which ``repeats > 1`` produces on purpose (measurement
replicas are free when the physics is deterministic and cached) — and
stacks compatible ones into batched ensembles
(:func:`repro.api.run_batch`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api import RunSpec
from repro.lbm.solver import LBMConfig
from repro.sweep.distributions import Distribution
from repro.util.rng import make_rng
from repro.util.validation import check_integer

#: Recognized sampler names, in documentation order.
SAMPLERS = ("mc", "lhs")


@dataclass(frozen=True)
class SweepParameter:
    """One swept scenario field and its prior distribution."""

    name: str
    dist: Distribution

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("parameter name must be a non-empty string")
        if not isinstance(self.dist, Distribution):
            raise TypeError(
                f"dist must be a Distribution, got {type(self.dist).__name__}"
            )


@dataclass(frozen=True)
class SweepSpec:
    """A seeded Monte Carlo sweep over one scenario's parameters.

    Attributes
    ----------
    base_config:
        The channel everything else is held at; must carry a
        ``scenario`` (see :mod:`repro.scenarios`).
    phases:
        LBM phases per sample.
    parameters:
        The swept scenario fields with their distributions.
    n_samples:
        Number of distinct parameter samples to draw.
    seed:
        Sampling seed (via ``util.rng.make_rng``); the sample matrix is
        a pure function of the spec.
    sampler:
        ``"mc"`` (i.i.d. uniforms) or ``"lhs"`` (Latin hypercube: one
        stratified uniform per sample and dimension — better space
        coverage at the same budget).
    repeats:
        Times each sample is submitted (> 1 manufactures duplicate
        submissions for the serve cache to collapse).
    """

    base_config: LBMConfig
    phases: int
    parameters: tuple[SweepParameter, ...]
    n_samples: int = 16
    seed: int = 0
    sampler: str = "mc"
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.base_config.scenario is None:
            raise ValueError(
                "a sweep needs a base_config carrying a scenario — that is "
                "the object whose fields are swept"
            )
        parameters = tuple(self.parameters)
        if not parameters:
            raise ValueError("a sweep needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate sweep parameters: {names}")
        scenario_fields = {
            f.name for f in dataclasses.fields(self.base_config.scenario)
        }
        for name in names:
            if name not in scenario_fields:
                raise ValueError(
                    f"scenario {self.base_config.scenario.name!r} has no "
                    f"field {name!r}; have {sorted(scenario_fields)}"
                )
        check_integer(self.phases, "phases", minimum=1)
        check_integer(self.n_samples, "n_samples", minimum=1)
        check_integer(self.seed, "seed", minimum=0)
        check_integer(self.repeats, "repeats", minimum=1)
        if self.sampler not in SAMPLERS:
            raise ValueError(
                f"sampler must be one of {SAMPLERS}, got {self.sampler!r}"
            )
        object.__setattr__(self, "parameters", parameters)

    # ------------------------------------------------------------ sampling
    def _uniforms(self) -> np.ndarray:
        """The ``(n_samples, k)`` uniform design matrix."""
        rng = make_rng(self.seed)
        n, k = self.n_samples, len(self.parameters)
        if self.sampler == "mc":
            return rng.random((n, k))
        # LHS: each column visits every 1/n stratum exactly once, in a
        # random order, jittered within the stratum.
        u = np.empty((n, k), dtype=np.float64)
        for j in range(k):
            u[:, j] = (rng.permutation(n) + rng.random(n)) / n
        return u

    def samples(self) -> list[dict[str, Any]]:
        """The drawn parameter samples, in submission order.  Values for
        integer-typed scenario fields (period, seed, ...) are rounded to
        ``int`` so they construct valid scenarios."""
        u = self._uniforms()
        scenario = self.base_config.scenario
        columns: list[np.ndarray] = [
            p.dist.ppf(u[:, j]) for j, p in enumerate(self.parameters)
        ]
        out: list[dict[str, Any]] = []
        for i in range(self.n_samples):
            sample: dict[str, Any] = {}
            for j, p in enumerate(self.parameters):
                value = float(columns[j][i])
                current = getattr(scenario, p.name)
                if isinstance(current, bool):
                    raise TypeError(f"cannot sweep boolean field {p.name!r}")
                if isinstance(current, int):
                    value = int(round(value))
                sample[p.name] = value
            out.append(sample)
        return out

    def compile(self) -> tuple[list[dict[str, Any]], list[RunSpec]]:
        """One draw of the sweep: the parameter samples and, per sample,
        the :class:`RunSpec` of the base config with its scenario's
        swept fields replaced (both in sample order)."""
        samples = self.samples()
        base = self.base_config
        specs = [
            RunSpec(
                config=base.replace(
                    scenario=dataclasses.replace(base.scenario, **sample)
                ),
                phases=self.phases,
            )
            for sample in samples
        ]
        return samples, specs

    def configs(self) -> list[LBMConfig]:
        """One :class:`LBMConfig` per sample."""
        return [spec.config for spec in self.compile()[1]]

    def run_specs(self) -> list[RunSpec]:
        """The compiled submission list: every sample's ``RunSpec``,
        repeated ``repeats`` times back to back."""
        return [
            spec for spec in self.compile()[1] for _ in range(self.repeats)
        ]

    # ---------------------------------------------------------- provenance
    def doc(self) -> dict[str, Any]:
        """Canonical JSON-able description (recorded in sweep results
        and benchmarks)."""
        return {
            "scenario": self.base_config.scenario.doc(),
            "phases": int(self.phases),
            "parameters": [
                {"name": p.name, "dist": p.dist.doc()} for p in self.parameters
            ],
            "n_samples": int(self.n_samples),
            "seed": int(self.seed),
            "sampler": self.sampler,
            "repeats": int(self.repeats),
        }
