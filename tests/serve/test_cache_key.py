"""Property tests for the content-addressed result-cache key.

The serve layer's correctness rests on one invariant: two
:class:`~repro.api.RunSpec` submissions share a fingerprint *iff* they
describe the same result.  Hypothesis drives both directions — any
execution knob (ranks, transport, policy, checkpoints, trace, timeout)
must leave the key unchanged, because every transport and rank count
is bit-identical by contract; any physics knob (geometry, components,
coupling, forcing, adhesion, phase target) must change it,
and so must the kernel backend (``fused`` is within 1e-12 of
``reference``, not the same bits), or the cache would serve the wrong
result.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.config as config_mod
from repro.api import RunSpec, canonical_spec_doc, run, spec_fingerprint
from repro.serve import serve_many

from tests.serve.workload import base_config

BASE = base_config()


def _with_amplitude(cfg, amplitude):
    return dataclasses.replace(
        cfg,
        wall_force=dataclasses.replace(cfg.wall_force, amplitude=amplitude),
    )


amplitudes = st.sampled_from([0.02, 0.05, 0.08, 0.11])
phase_targets = st.integers(min_value=1, max_value=64)

#: Everything a client may set that does NOT affect the simulated
#: physics — the fingerprint must be blind to all of it.
execution_knobs = st.fixed_dictionaries(
    {
        "ranks": st.integers(1, 4),
        "decomp": st.sampled_from(["auto", "slab"]),
        "halo_overlap": st.booleans(),
        "transport": st.sampled_from([None, "threads", "processes"]),
        "policy": st.sampled_from(
            ["filtered", "conservative", "global", "no-remap"]
        ),
        "checkpoint_every": st.integers(0, 8),
        "checkpoint_keep": st.integers(1, 4),
        "resume": st.booleans(),
        "timeout": st.sampled_from([30.0, 600.0, 900.0]),
        "trace_path": st.sampled_from([None, "trace.jsonl"]),
    }
)


def _other_backend(cfg):
    return dataclasses.replace(
        cfg, backend="reference" if cfg.backend == "fused" else "fused"
    )


#: Named single-knob perturbations of the result — the physics, and the
#: kernel backend that computes it; each must flip the key.
PHYSICS_TWEAKS = [
    ("backend", _other_backend),
    (
        "wall_force_amplitude",
        lambda c: _with_amplitude(c, c.wall_force.amplitude + 0.013),
    ),
    (
        "wall_force_decay",
        lambda c: dataclasses.replace(
            c,
            wall_force=dataclasses.replace(c.wall_force, decay_length=3.0),
        ),
    ),
    ("wall_force_dropped", lambda c: dataclasses.replace(c, wall_force=None)),
    (
        "tau",
        lambda c: dataclasses.replace(
            c,
            components=(
                dataclasses.replace(c.components[0], tau=1.1),
            )
            + c.components[1:],
        ),
    ),
    (
        "rho_init",
        lambda c: dataclasses.replace(
            c,
            components=c.components[:1]
            + (dataclasses.replace(c.components[1], rho_init=0.05),),
        ),
    ),
    (
        "mass",
        lambda c: dataclasses.replace(
            c,
            components=(
                dataclasses.replace(c.components[0], mass=1.5),
            )
            + c.components[1:],
        ),
    ),
    (
        "g_matrix",
        lambda c: dataclasses.replace(
            c, g_matrix=np.array([[0.0, 0.95], [0.95, 0.0]])
        ),
    ),
    (
        "body_acceleration",
        lambda c: dataclasses.replace(c, body_acceleration=(2e-6, 0.0)),
    ),
    ("adhesion", lambda c: dataclasses.replace(c, adhesion=(0.1, -0.1))),
    (
        "shape",
        lambda c: dataclasses.replace(
            c,
            geometry=dataclasses.replace(c.geometry, shape=(12, 20)),
        ),
    ),
]


@settings(deadline=None)
@given(amplitude=amplitudes, phases=phase_targets, knobs=execution_knobs)
def test_execution_knobs_never_change_the_key(amplitude, phases, knobs):
    cfg = _with_amplitude(BASE, amplitude)
    plain = RunSpec(config=cfg, phases=phases)
    dressed = RunSpec(config=cfg, phases=phases, **knobs)
    assert spec_fingerprint(dressed) == spec_fingerprint(plain)
    assert dressed.fingerprint() == plain.fingerprint()


@settings(deadline=None)
@given(amplitude=amplitudes, phases=phase_targets)
def test_defaulted_and_explicit_default_values_share_a_key(amplitude, phases):
    cfg = _with_amplitude(BASE, amplitude)
    bare = RunSpec(config=cfg, phases=phases)
    explicit = RunSpec(
        config=cfg,
        phases=phases,
        ranks=1,
        transport=None,
        policy="filtered",
        checkpoint_every=0,
        checkpoint_keep=3,
        resume=False,
        timeout=600.0,
    )
    assert spec_fingerprint(bare) == spec_fingerprint(explicit)
    assert canonical_spec_doc(bare) == canonical_spec_doc(explicit)


@settings(deadline=None)
@given(
    a1=amplitudes, a2=amplitudes, p1=phase_targets, p2=phase_targets
)
def test_key_equality_iff_semantic_equality(a1, a2, p1, p2):
    s1 = RunSpec(config=_with_amplitude(BASE, a1), phases=p1)
    s2 = RunSpec(config=_with_amplitude(BASE, a2), phases=p2)
    semantically_equal = (a1 == a2) and (p1 == p2)
    assert (spec_fingerprint(s1) == spec_fingerprint(s2)) == semantically_equal


@settings(deadline=None)
@given(tweak=st.sampled_from(PHYSICS_TWEAKS), phases=phase_targets)
def test_any_physics_knob_change_flips_the_key(tweak, phases):
    name, transform = tweak
    before = RunSpec(config=BASE, phases=phases)
    after = RunSpec(config=transform(BASE), phases=phases)
    assert spec_fingerprint(before) != spec_fingerprint(after), name


@settings(deadline=None)
@given(phases=phase_targets)
def test_phase_target_participates_in_the_key(phases):
    assert spec_fingerprint(RunSpec(config=BASE, phases=phases)) != (
        spec_fingerprint(RunSpec(config=BASE, phases=phases + 1))
    )


def test_env_overlay_round_trip_keeps_the_key(monkeypatch, tmp_path):
    """A spec overlaid from a fully-populated environment (transport,
    checkpoint family) keys identically to the bare spec — the overlay
    only fills execution knobs."""
    spec = RunSpec(config=BASE, phases=8)
    key = spec_fingerprint(spec)
    monkeypatch.setenv(config_mod.ENV_TRANSPORT, "processes")
    monkeypatch.setenv(config_mod.ENV_CKPT_DIR, str(tmp_path / "ckpt"))
    monkeypatch.setenv(config_mod.ENV_CKPT_EVERY, "4")
    overlaid = config_mod.from_env().overlay(spec)
    assert overlaid.transport == "processes"
    assert overlaid.checkpoint_dir is not None
    assert spec_fingerprint(overlaid) == key
    # and the round trip is idempotent
    again = config_mod.from_env().overlay(overlaid)
    assert spec_fingerprint(again) == key


def test_canonical_doc_is_json_stable():
    doc = canonical_spec_doc(RunSpec(config=BASE, phases=8))
    dumped = json.dumps(doc, sort_keys=True)
    assert json.loads(dumped) == doc, "doc must survive a JSON round trip"
    assert json.dumps(json.loads(dumped), sort_keys=True) == dumped


def test_fingerprint_is_a_hex_digest():
    key = spec_fingerprint(RunSpec(config=BASE, phases=8))
    assert len(key) == 64
    assert int(key, 16) >= 0


def test_backend_is_part_of_the_key():
    spec = RunSpec(config=BASE, phases=8)
    other = RunSpec(config=_other_backend(BASE), phases=8)
    assert spec_fingerprint(other) != spec_fingerprint(spec)
    assert canonical_spec_doc(spec)["kernel"] == BASE.backend
    assert canonical_spec_doc(other)["kernel"] == other.config.backend


@pytest.mark.parametrize(
    "order", [("reference", "fused"), ("fused", "reference")]
)
def test_a_job_is_never_answered_from_the_other_backends_entry(order):
    """One worker, no coalescing, so the second job is looked up after
    the first has been stored: each submission must come back with the
    bits a direct run on *its* backend gives."""
    specs = [
        RunSpec(config=dataclasses.replace(BASE, backend=name), phases=6)
        for name in order
    ]
    direct = [run(spec).f for spec in specs]
    assert not np.array_equal(direct[0], direct[1]), (
        "the two backends agree bit for bit here, so this proves nothing"
    )
    served = serve_many(specs, workers=1, coalesce=1)
    for got, want in zip(served, direct):
        assert np.array_equal(got.f, want)


def test_fingerprint_rejects_nothing_silently():
    with pytest.raises(ValueError):
        RunSpec(config=BASE, phases=-1)
