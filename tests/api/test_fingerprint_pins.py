"""Pinned fingerprints: the content addresses of existing results and
checkpoints must not move.

Checkpoint directories and the serve cache are keyed by
:func:`repro.api.spec_fingerprint`, and ``check_fingerprint`` compares
whole :func:`repro.ckpt.manifest.config_fingerprint` dicts — so a key
dropped from (or renamed in) the physics document would orphan every
checkpoint and cached result written before.  The hex digests below were
computed before the ``collision`` and ``psi`` configuration knobs were
removed; the document still carries both keys as constants.
"""

import numpy as np

from repro.api import RunSpec, spec_fingerprint
from repro.ckpt.manifest import config_fingerprint
from repro.lbm.components import ComponentSpec
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.scenarios import RoughScenario

WATER_AIR = (
    ComponentSpec("water", tau=1.0, rho_init=1.0),
    ComponentSpec("air", tau=1.0, rho_init=0.03),
)
COUPLING = np.array([[0.0, 0.9], [0.9, 0.0]])


def channel_3d() -> RunSpec:
    """The paper's D3Q19 hydrophobic duct (default lattice)."""
    config = LBMConfig(
        geometry=ChannelGeometry(shape=(20, 10, 10), wall_axes=(1, 2)),
        components=WATER_AIR,
        g_matrix=COUPLING,
        wall_force=WallForceSpec(amplitude=0.1, decay_length=2.5),
        body_acceleration=(2e-7, 0.0, 0.0),
        backend="fused",
    )
    return RunSpec(config=config, phases=100)


def rough_2d() -> RunSpec:
    config = LBMConfig(
        geometry=ChannelGeometry(shape=(12, 20)),
        components=WATER_AIR,
        g_matrix=COUPLING,
        lattice=D2Q9,
        scenario=RoughScenario(
            amplitude=0.05, decay_length=2.5, rms=1.0, max_height=2, seed=7
        ),
        body_acceleration=(1e-6, 0.0),
        backend="fused",
    )
    return RunSpec(config=config, phases=40)


def test_default_3d_spec_fingerprint_is_pinned():
    assert spec_fingerprint(channel_3d()) == (
        "1b3a6d21489919631f9a1ce8c1509507a0d549b30ab45a1fdb4d8b4bb824b80d"
    )


def test_rough_spec_fingerprint_is_pinned():
    assert spec_fingerprint(rough_2d()) == (
        "ed2ccf594fb9e7de56a779a00ee70c922e4f9850167d6dd5050d35240c902cf7"
    )


def test_removed_knobs_stay_in_the_physics_document_as_constants():
    doc = config_fingerprint(channel_3d().config)
    assert doc["collision"] == "bgk"
    assert doc["psi"] == "psi_identity"
