"""Property-based tests on the LBM kernels: conservation laws and
exact-inverse identities must hold for arbitrary population fields."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.lbm.backends.reference import ReferenceBackend
from repro.lbm.boundary import bounce_back
from repro.lbm.components import ComponentSpec
from repro.lbm.equilibrium import equilibrium
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMConfig
from repro.lbm.streaming import stream

population_fields = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.just(9), st.integers(3, 8), st.integers(3, 8)
    ),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


@given(f=population_fields)
@settings(max_examples=40, deadline=None)
def test_streaming_conserves_mass_per_direction(f):
    before = f.sum(axis=(1, 2)).copy()
    stream(f, D2Q9)
    assert np.allclose(f.sum(axis=(1, 2)), before)


@given(f=population_fields)
@settings(max_examples=40, deadline=None)
def test_streaming_is_permutation(f):
    values_before = np.sort(f.ravel()).copy()
    stream(f, D2Q9)
    assert np.allclose(np.sort(f.ravel()), values_before)


@given(f=population_fields, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_bounce_back_involution(f, seed):
    solid = np.random.default_rng(seed).random(f.shape[1:]) > 0.5
    original = f.copy()
    bounce_back(f, solid, D2Q9)
    bounce_back(f, solid, D2Q9)
    assert np.allclose(f, original)


@given(f=population_fields, tau=st.floats(0.51, 3.0))
@example(f=np.linspace(0.0, 1.0, 9 * 5 * 4).reshape(9, 5, 4), tau=1.0)
@settings(max_examples=40, deadline=None)
def test_collision_conserves_mass_and_momentum(f, tau):
    f = f + 0.05  # keep densities positive
    rho = f.sum(axis=0)
    u = np.tensordot(D2Q9.c.astype(float).T, f, axes=([1], [0])) / rho
    # The reference backend's BGK step, one component of unit mass on an
    # all-fluid grid: relaxing toward the *matching-moments* equilibrium
    # conserves mass and momentum exactly, for any u (the algebra needs
    # no stability).
    config = LBMConfig(
        geometry=ChannelGeometry(shape=rho.shape, wall_axes=()),
        components=(ComponentSpec("water", tau=tau),),
        g_matrix=np.zeros((1, 1)),
        lattice=D2Q9,
        backend="reference",
    )
    backend = ReferenceBackend(config, rho.shape, np.zeros(rho.shape, dtype=bool))
    feq = equilibrium(rho, u, D2Q9)
    mass_before = f.sum()
    c = D2Q9.c.astype(float)
    mom_before = np.tensordot(c.T, f, axes=([1], [0])).sum(axis=(1, 2))
    stack = f[None].copy()
    backend.collide_bgk(stack, rho[None], u[None], np.ones(rho.shape))
    f = stack[0]
    assert np.isclose(f.sum(), mass_before)
    mom_after = np.tensordot(c.T, f, axes=([1], [0])).sum(axis=(1, 2))
    scale = max(1.0, np.abs(mom_before).max())
    assert np.allclose(mom_after, mom_before, atol=1e-9 * scale)
    if tau == 1.0:  # full relaxation lands on the equilibrium
        assert np.allclose(f, feq)


@given(
    rho_val=st.floats(0.1, 3.0),
    ux=st.floats(-0.1, 0.1),
    uy=st.floats(-0.1, 0.1),
)
@settings(max_examples=60, deadline=None)
def test_equilibrium_moments_exact(rho_val, ux, uy):
    shape = (3, 3)
    rho = np.full(shape, rho_val)
    u = np.zeros((2, *shape))
    u[0], u[1] = ux, uy
    feq = equilibrium(rho, u, D2Q9)
    assert np.allclose(feq.sum(axis=0), rho)
    mom = np.tensordot(D2Q9.c.astype(float).T, feq, axes=([1], [0]))
    assert np.allclose(mom[0], rho_val * ux, atol=1e-12)
    assert np.allclose(mom[1], rho_val * uy, atol=1e-12)


@given(
    rho_val=st.floats(0.1, 2.0),
    u_val=st.floats(-0.08, 0.08),
)
@settings(max_examples=30, deadline=None)
def test_equilibrium_galilean_consistency_3d(rho_val, u_val):
    """Same moments hold on D3Q19."""
    shape = (2, 2, 2)
    rho = np.full(shape, rho_val)
    u = np.zeros((3, *shape))
    u[2] = u_val
    feq = equilibrium(rho, u, D3Q19)
    assert np.allclose(feq.sum(axis=0), rho)
    mom = np.tensordot(D3Q19.c.astype(float).T, feq, axes=([1], [0]))
    assert np.allclose(mom[2], rho_val * u_val, atol=1e-12)
