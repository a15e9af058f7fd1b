"""The fingerprint memo cannot go stale.

:func:`repro.api.spec_fingerprint` hashes a spec once and keeps the
digest on the spec object.  That is sound only while nothing the
digest reads can change: equal specs must agree, a ``replace``-d spec
is hashed afresh, and the one mutable thing a spec used to carry — its
config's coupling matrix — can no longer be written.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.api import RunSpec, canonical_spec_doc, spec_fingerprint
from repro.ckpt.io import sha256_bytes
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.scenarios import HomogeneousScenario


def make_spec(coupling=0.9, phases=5) -> RunSpec:
    config = LBMConfig(
        geometry=ChannelGeometry(shape=(6, 12)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, coupling], [coupling, 0.0]]),
        lattice=D2Q9,
        scenario=HomogeneousScenario(amplitude=0.05),
        body_acceleration=(1e-6, 0.0),
    )
    return RunSpec(config=config, phases=phases)


def fresh_digest(spec: RunSpec) -> str:
    """The digest computed afresh, bypassing any memo."""
    import json

    return sha256_bytes(
        json.dumps(canonical_spec_doc(spec), sort_keys=True).encode()
    )


def test_equal_specs_give_equal_fingerprints():
    a, b = make_spec(), make_spec()
    assert a is not b and a.config is not b.config
    assert spec_fingerprint(a) == spec_fingerprint(b) == fresh_digest(a)
    assert spec_fingerprint(a) == spec_fingerprint(a)  # memo hit


def test_replace_is_hashed_afresh():
    spec = make_spec()
    first = spec_fingerprint(spec)
    longer = dataclasses.replace(spec, phases=6)
    assert spec_fingerprint(longer) != first
    assert spec_fingerprint(longer) == fresh_digest(longer)
    same = dataclasses.replace(spec, transport="threads")
    assert "_fingerprint" not in vars(same)
    assert spec_fingerprint(same) == first


def test_coupling_matrix_cannot_be_written():
    spec = make_spec()
    fingerprint = spec_fingerprint(spec)
    g = spec.config.g_matrix
    with pytest.raises(ValueError, match="read-only"):
        g[0, 1] = 0.5
    with pytest.raises(ValueError):
        g.flags.writeable = True
    assert spec_fingerprint(spec) == fingerprint == fresh_digest(spec)


def test_config_does_not_alias_the_callers_matrix():
    raw = np.array([[0.0, 0.9], [0.9, 0.0]])
    spec = make_spec()
    config = dataclasses.replace(spec.config, g_matrix=raw)
    raw[0, 1] = raw[1, 0] = 0.1  # the caller's array stays the caller's
    assert raw.flags.writeable
    assert config.g_matrix[0, 1] == 0.9


@pytest.mark.parametrize(
    "clone", [pickle.loads, copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_a_rebuilt_writable_matrix_is_never_memoised(clone):
    spec = make_spec()
    spec_fingerprint(spec)
    rebuilt = clone(pickle.dumps(spec)) if clone is pickle.loads else clone(spec)
    g = rebuilt.config.g_matrix
    assert g.flags.writeable  # neither pickle nor deepcopy keeps the flag
    g[0, 1] = g[1, 0] = 0.5
    assert spec_fingerprint(rebuilt) == fresh_digest(rebuilt)
    assert spec_fingerprint(rebuilt) == spec_fingerprint(make_spec(coupling=0.5))
