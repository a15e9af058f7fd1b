"""The wall-physics ``Scenario`` abstraction and its registry.

The paper models one wall physics — a homogeneous hydrophobic force at
both channel walls.  Its own lineage immediately generalizes it: rough
walls mask or amplify apparent slip (Kunert & Harting 2007), and
patterned surfaces alternate the local slip length along the flow
direction (Ahmed & Hecht 2009).  A :class:`Scenario` packages one such
wall physics as a frozen parameter dataclass that produces, for any
:class:`~repro.lbm.geometry.ChannelGeometry`:

- a **solid mask** (rough walls displace the wall surface inward), and
- a **per-site wall-force field** — the static acceleration applied to
  the targeted component (the paper's hydrophobic force, possibly
  modulated in space),

plus **expected-observable hooks** (:meth:`Scenario.expected_trends`)
stating which way the apparent slip should move when each parameter
grows — the monotone-sanity contract the figure tests check.

Scenarios plug into :class:`~repro.lbm.solver.LBMConfig` via its
``scenario`` field (mutually exclusive with the direct ``wall_force``
channel, which the ``homogeneous`` scenario reproduces bit-for-bit) and
from there into every execution substrate: the sequential solver, the
parallel driver (x-invariant scenarios only — the slab decomposition
shares one cross-section wall pattern), the batched ensemble engine
(per-member force fields; one shared solid mask) and the serve layer
(the scenario document participates in the physics fingerprint, so the
result cache can never conflate two scenarios).

Classes register under :attr:`Scenario.name` via
:func:`register_scenario`; :func:`scenario_from_doc` rebuilds an
instance from the canonical document :meth:`Scenario.doc` emits (the
serialization used by fingerprints and checkpoint manifests).
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Callable
from typing import Any, ClassVar

import numpy as np

from repro.lbm.geometry import ChannelGeometry, geometry_cached

_REGISTRY: dict[str, type["Scenario"]] = {}

def register_scenario(cls: type["Scenario"]) -> type["Scenario"]:
    """Class decorator: add *cls* to the registry under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"scenario class {cls.__name__} needs a `name` string")
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ValueError(f"scenario {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def available_scenarios() -> list[str]:
    """Names of all registered scenarios, sorted."""
    return sorted(_REGISTRY)


def get_scenario_class(name: str) -> type["Scenario"]:
    """Look up a scenario class by name; unknown names fail loudly."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        )
    return _REGISTRY[name]


def scenario_from_doc(doc: dict[str, Any]) -> "Scenario":
    """Rebuild a scenario from its canonical :meth:`Scenario.doc`
    document — the inverse used when a fingerprint or manifest needs to
    materialize the wall physics it recorded."""
    if not isinstance(doc, dict) or "name" not in doc:
        raise ValueError(f"scenario doc needs a 'name' entry, got {doc!r}")
    cls = get_scenario_class(str(doc["name"]))
    params = dict(doc.get("params", {}))
    return cls(**params)


class Scenario(abc.ABC):
    """One pluggable wall physics (subclasses are frozen dataclasses).

    Class attributes
    ----------------
    name:
        Registry key (``"homogeneous"``, ``"rough"``, ``"patterned"``).
    alters_geometry:
        True when the scenario's solid mask differs from the base
        geometry's (rough walls).  Scenarios that only reshape the force
        field share solid masks and can therefore share a batched
        ensemble.
    x_invariant:
        True when both the solid mask and the force field are constant
        along the (periodic) flow axis.  A memory optimization hint for
        the parallel driver: x-invariant scenarios are stored as one
        shared cross-section, x-varying ones are sliced per slab.
        Every scenario runs under every rank count.
    """

    name: ClassVar[str] = ""
    alters_geometry: ClassVar[bool] = False
    x_invariant: ClassVar[bool] = False

    #: Subclasses carry the targeted component as a dataclass field.
    component: str

    # ------------------------------------------------------------ fields
    def solid_mask(self, geometry: ChannelGeometry) -> np.ndarray:
        """Boolean solid-node field for *geometry* under this scenario,
        read-only and computed once per geometry signature and geometry
        (:func:`geometry_cached`).

        The default keeps the base geometry's walls; geometry-altering
        scenarios (rough walls) override :meth:`_build_solid_mask`.
        """
        return self._geometry_data("solid", geometry, self._build_solid_mask)

    def _build_solid_mask(self, geometry: ChannelGeometry) -> np.ndarray:
        return geometry.solid_mask()

    def _geometry_data(
        self, kind: str, geometry: ChannelGeometry, build: Callable, *params: Any
    ) -> Any:
        """``build(geometry)`` through :func:`geometry_cached`, keyed by
        *kind*, the geometry signature, *geometry* and *params*."""
        signature = self.geometry_signature()
        signature = None if signature is None else tuple(sorted(signature.items()))
        key = (kind, signature, geometry, params)
        return geometry_cached(key, lambda: build(geometry))

    @abc.abstractmethod
    def wall_accel(self, geometry: ChannelGeometry) -> np.ndarray:
        """The static per-site wall acceleration ``(D, *S)`` applied to
        :attr:`component` (zero inside the scenario's solid nodes)."""

    # ------------------------------------------------------------ identity
    def doc(self) -> dict[str, Any]:
        """Canonical JSON-able identity document: registry name plus
        every parameter.  This is what the physics fingerprint
        (:func:`repro.ckpt.manifest.config_fingerprint`) embeds, so two
        scenarios sharing all other physics knobs can never collide in
        the serve result cache."""
        params: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or isinstance(value, str):
                params[f.name] = value
            elif isinstance(value, int):
                params[f.name] = int(value)
            elif isinstance(value, float):
                params[f.name] = float(value)
            else:
                raise TypeError(
                    f"scenario field {f.name!r} has non-canonical type "
                    f"{type(value).__name__}"
                )
        return {"name": self.name, "params": params}

    def geometry_params(self) -> dict[str, Any]:
        """The subset of parameters that shape the solid mask (empty for
        scenarios that keep the base geometry)."""
        return {}

    def geometry_signature(self) -> dict[str, Any] | None:
        """Hashable-by-equality description of the scenario's solid
        mask, or ``None`` when it keeps the base geometry's.  Two
        configurations may share a batched ensemble (one stacked solid
        mask) iff their signatures are equal."""
        if not self.alters_geometry:
            return None
        return {"name": self.name, **self.geometry_params()}

    # ----------------------------------------------------- expectations
    def expected_trends(self) -> dict[str, str]:
        """Expected-observable hook: map of parameter name to the sign
        (``"+"`` / ``"-"``) of the apparent-slip response when that
        parameter grows — what the related work predicts and the figure
        tests assert."""
        return {}
