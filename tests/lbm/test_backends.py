"""Kernel-backend tests: registry behaviour, fused-vs-reference
differential matrix, per-kernel parity properties and the fused
backend's allocation-free guarantee."""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lbm.backends import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    FusedBackend,
    ReferenceBackend,
    available_backends,
    create_backend,
    get_backend_class,
    resolve_backend_name,
)
from repro.lbm.backends.fused import _replay, _roll_copies, _roll_plan
from repro.lbm.components import ComponentSpec
from repro.lbm.diagnostics import effective_slip_fraction
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9, D3Q19, Lattice
from repro.lbm.solver import LBMConfig, MulticomponentLBM

ATOL = 1e-12

# The fused step replays NumPy calls bound once; a deprecated spelling
# among them (``np.maximum(a, b, out)`` in NumPy 2.4) must fail here.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


class DiscGeometry(ChannelGeometry):
    """A channel plus a solid disc of radius 2 about the x-y centre (a
    post spanning the last axis in 3-D): solid nodes that are not wall
    planes, for bounce-back coverage."""

    def solid_mask(self) -> np.ndarray:
        x, y = np.meshgrid(
            *(np.arange(n, dtype=np.float64) for n in self.shape[:2]),
            indexing="ij",
        )
        cx, cy = ((n - 1) / 2.0 for n in self.shape[:2])
        disc = (x - cx) ** 2 + (y - cy) ** 2 <= 4.0
        disc = disc.reshape(disc.shape + (1,) * (self.ndim - 2))
        return super().solid_mask() | disc


def two_component_config(
    lattice, *, scenario="walls", backend=None, shape=None
):
    """A small two-component channel for the given lattice, with the
    requested boundary scenario."""
    if lattice.D == 2:
        shape = shape or (14, 12)
        geometry = ChannelGeometry(shape=shape, wall_axes=(1,))
        accel = (2e-6, 0.0)
    else:
        shape = shape or (10, 9, 8)
        geometry = ChannelGeometry(shape=shape)
        accel = (2e-6, 0.0, 0.0)

    wall_force = None
    adhesion = None
    if scenario == "walls":
        wall_force = WallForceSpec(amplitude=0.03, decay_length=2.0)
    elif scenario == "obstacles":
        geometry = DiscGeometry(shape=shape, wall_axes=geometry.wall_axes)
    elif scenario == "adhesion":
        adhesion = (-0.08, 0.08)
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise ValueError(scenario)

    return LBMConfig(
        geometry=geometry,
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=0.8, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=lattice,
        wall_force=wall_force,
        body_acceleration=accel,
        adhesion=adhesion,
        backend=backend,
    )


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["fused", "reference"]

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend_name(None) == DEFAULT_BACKEND == "fused"

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fused")
        assert resolve_backend_name(None) == "fused"
        # An explicit name always wins over the environment.
        assert resolve_backend_name("reference") == "reference"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown.*backend"):
            resolve_backend_name("turbo")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="turbo"):
            resolve_backend_name(None)

    # The deleted array-API backend's name is spelled in two halves so
    # that a grep for it over the repo stays empty.
    @pytest.mark.parametrize("name", ["batched", "array" + "api"])
    def test_former_backend_names_rejected_naming_both_choices(
        self, name, monkeypatch
    ):
        choices = r"\['fused', 'reference'\]"
        with pytest.raises(ValueError, match=choices):
            two_component_config(D2Q9, backend=name)
        monkeypatch.setenv(BACKEND_ENV_VAR, name)
        with pytest.raises(ValueError, match=choices):
            two_component_config(D2Q9)

    def test_config_stores_resolved_name(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fused")
        cfg = two_component_config(D2Q9)
        assert cfg.backend == "fused"
        # The resolved name is frozen into the config: clearing the
        # environment afterwards must not change which backend is built.
        monkeypatch.delenv(BACKEND_ENV_VAR)
        solver = MulticomponentLBM(cfg)
        assert isinstance(solver.backend, FusedBackend)

    def test_get_backend_class(self):
        assert get_backend_class("reference") is ReferenceBackend
        assert get_backend_class("fused") is FusedBackend

    def test_create_backend_builds_named_class(self):
        cfg = two_component_config(D2Q9, backend="fused")
        backend = create_backend(
            cfg, cfg.geometry.shape, cfg.geometry.solid_mask()
        )
        assert isinstance(backend, FusedBackend)


class TestFusedLatticeGuard:
    """The separable Shan-Chen stencil holds for axis + planar-diagonal
    single-link lattices with one weight per class; anything else must
    be refused at construction, not silently miscomputed."""

    @pytest.mark.parametrize("kind", ["wide", "uneven-weights"])
    def test_unsupported_lattice_rejected(self, kind):
        if kind == "wide":
            lattice = Lattice("D2Q9-wide", D2Q9.c * 2, D2Q9.w)
        else:
            w = D2Q9.w.copy()
            w[1:3] += 1e-3  # x links heavier than y links
            w[3:5] -= 1e-3
            lattice = Lattice("D2Q9-uneven", D2Q9.c, w)
        cfg = dataclasses.replace(
            two_component_config(D2Q9, backend="fused"), lattice=lattice
        )
        with pytest.raises(ValueError, match="single-link"):
            FusedBackend(cfg, cfg.geometry.shape, cfg.geometry.solid_mask())


def _pair(lattice, scenario, backend="fused"):
    """Reference and *backend* solvers for the same configuration."""
    cfg = two_component_config(lattice, scenario=scenario, backend="reference")
    ref = MulticomponentLBM(cfg)
    other = MulticomponentLBM(dataclasses.replace(cfg, backend=backend))
    return ref, other


DIFF_MATRIX = [
    (D2Q9, "walls"),
    (D2Q9, "obstacles"),
    (D2Q9, "adhesion"),
    (D3Q19, "walls"),
    (D3Q19, "obstacles"),
    (D3Q19, "adhesion"),
]


class TestDifferentialMatrix:
    """Fused must agree with reference to <= 1e-12 after many steps, for
    every lattice x boundary-condition combination."""

    @pytest.mark.parametrize(
        "lattice,scenario",
        DIFF_MATRIX,
        ids=[f"{lat.name}-{s}" for lat, s in DIFF_MATRIX],
    )
    def test_full_step_parity(self, lattice, scenario):
        ref, fused = _pair(lattice, scenario)
        ref.run(25)
        fused.run(25)
        np.testing.assert_allclose(fused.f, ref.f, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(fused.rho, ref.rho, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(fused.u_eq, ref.u_eq, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(
            fused.force, ref.force, rtol=0.0, atol=ATOL
        )

    @pytest.mark.parametrize(
        "lattice,scenario",
        [(D3Q19, "walls"), (D2Q9, "obstacles"), (D2Q9, "adhesion")],
        ids=["D3Q19-walls", "D2Q9-obstacles", "D2Q9-adhesion"],
    )
    def test_long_run_parity_and_slip(self, lattice, scenario):
        """The dgemm kernels reorder the arithmetic, so the few-ULP
        differences must not grow: still <= 1e-12 after 200 phases, and
        the measured slip — the number the paper is about — agrees to
        1e-10 relative."""
        ref, fused = _pair(lattice, scenario)
        ref.run(200)
        fused.run(200)
        np.testing.assert_allclose(fused.f, ref.f, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(fused.rho, ref.rho, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(fused.u_eq, ref.u_eq, rtol=0.0, atol=ATOL)
        assert effective_slip_fraction(fused) == pytest.approx(
            effective_slip_fraction(ref), rel=1e-10, abs=0.0
        )


def _backend_pair(lattice, scenario="walls", shape=None):
    cfg = two_component_config(lattice, scenario=scenario, shape=shape)
    shape = cfg.geometry.shape
    solid = cfg.geometry.solid_mask()
    return (
        ReferenceBackend(cfg, shape, solid),
        FusedBackend(cfg, shape, solid),
        cfg,
    )


def _random_f(rng, cfg):
    shape = (cfg.n_components, cfg.lattice.Q) + cfg.geometry.shape
    return rng.uniform(0.01, 1.0, size=shape)


class TestKernelParity:
    """Per-kernel agreement on random states (tighter than the full-step
    test: isolates which kernel broke)."""

    @pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=lambda l: l.name)
    def test_stream(self, lattice):
        ref, fused, cfg = _backend_pair(lattice)
        rng = np.random.default_rng(3)
        f = _random_f(rng, cfg)
        out_ref = ref.stream(f.copy())
        out_fused = fused.stream(f.copy())
        assert np.array_equal(out_ref, out_fused)

    @pytest.mark.parametrize(
        "shape", [(1, 4), (2, 3), (4, 1), (3, 1, 2), (2, 2, 2), (5, 4, 3)]
    )
    def test_flat_offset_roll_plan_equals_np_roll(self, shape):
        """Bulk flat-offset copy + wrapped-face fix-ups, for every
        single-link shift, down to extents 1 and 2 (one-plane pieces,
        minimal slabs)."""
        rng = np.random.default_rng(9)
        src = rng.uniform(size=(2,) + shape)
        axes = tuple(range(1, len(shape) + 1))
        for shift in itertools.product((-1, 0, 1), repeat=len(shape)):
            dst = np.full_like(src, np.nan)
            _replay(_roll_copies(dst, src, _roll_plan(shape, shift)))
            assert np.array_equal(dst, np.roll(src, shift, axis=axes)), shift

    @pytest.mark.parametrize(
        "shape", [(1, 4), (2, 3), (4, 1), (3, 1, 2), (2, 2, 2), (5, 4, 3)]
    )
    def test_in_place_stream_equals_np_roll(self, shape):
        """Streaming in place -- faces saved, one overlapping copy per
        component row, faces written back -- down to extents 1 and 2."""
        lattice = D2Q9 if len(shape) == 2 else D3Q19
        cfg = dataclasses.replace(
            two_component_config(lattice, backend="fused"),
            geometry=ChannelGeometry(shape=shape, wall_axes=()),
        )
        fused = FusedBackend(cfg, shape, np.zeros(shape, dtype=bool))
        f = np.random.default_rng(10).uniform(size=(2, lattice.Q) + shape)
        axes = tuple(range(1, len(shape) + 1))
        expected = [np.roll(f[:, k], lattice.shifts[k], axis=axes) for k in range(lattice.Q)]
        assert fused.stream(f) is f
        for k in range(lattice.Q):
            assert np.array_equal(f[:, k], expected[k]), lattice.shifts[k]

    @pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=lambda l: l.name)
    def test_stream_twice_round_trips_buffers(self, lattice):
        """Repeated in-place calls keep streaming what the previous call
        left behind (the saved wrapped faces must not leak across)."""
        ref, fused, cfg = _backend_pair(lattice)
        rng = np.random.default_rng(4)
        f = _random_f(rng, cfg)
        out_ref = ref.stream(ref.stream(f.copy()))
        out_fused = fused.stream(fused.stream(f.copy()))
        assert np.array_equal(out_ref, out_fused)

    @pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=lambda l: l.name)
    def test_bounce_back(self, lattice):
        ref, fused, cfg = _backend_pair(lattice, scenario="obstacles")
        rng = np.random.default_rng(5)
        f_ref = _random_f(rng, cfg)
        f_fused = f_ref.copy()
        ref.bounce_back(f_ref)
        fused.bounce_back(f_fused)
        assert np.array_equal(f_ref, f_fused)

    @pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=lambda l: l.name)
    def test_equilibrium(self, lattice):
        ref, fused, cfg = _backend_pair(lattice)
        rng = np.random.default_rng(6)
        shape = cfg.geometry.shape
        rho_n = rng.uniform(0.1, 2.0, size=shape)
        u = rng.uniform(-0.05, 0.05, size=(lattice.D,) + shape)
        np.testing.assert_allclose(
            fused.equilibrium(rho_n, u),
            ref.equilibrium(rho_n, u),
            rtol=0.0,
            atol=ATOL,
        )

    @pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=lambda l: l.name)
    def test_shan_chen_force(self, lattice):
        ref, fused, cfg = _backend_pair(lattice)
        rng = np.random.default_rng(7)
        shape = cfg.geometry.shape
        psis = rng.uniform(0.0, 1.0, size=(cfg.n_components,) + shape)
        np.testing.assert_allclose(
            fused.shan_chen_force(psis.copy()),
            ref.shan_chen_force(psis.copy()),
            rtol=0.0,
            atol=ATOL,
        )

    @pytest.mark.parametrize("lattice", [D2Q9, D3Q19], ids=lambda l: l.name)
    def test_moments(self, lattice):
        ref, fused, cfg = _backend_pair(lattice)
        rng = np.random.default_rng(8)
        f = _random_f(rng, cfg)
        shape = cfg.geometry.shape
        C, D = cfg.n_components, lattice.D
        rho_ref = np.empty((C,) + shape)
        mom_ref = np.empty((C, D) + shape)
        rho_fused = np.empty_like(rho_ref)
        mom_fused = np.empty_like(mom_ref)
        ref.moments(f, rho_ref, mom_ref)
        fused.moments(f, rho_fused, mom_fused)
        np.testing.assert_allclose(rho_fused, rho_ref, rtol=0.0, atol=ATOL)
        np.testing.assert_allclose(mom_fused, mom_ref, rtol=0.0, atol=ATOL)


small_states = st.fixed_dictionaries(
    {
        "nx": st.integers(5, 10),
        "ny": st.integers(6, 11),
        "seed": st.integers(0, 2**31 - 1),
        "g": st.floats(0.0, 1.2),
        "umax": st.floats(0.0, 0.1),
    }
)


def _property_pair(p):
    geo = ChannelGeometry(shape=(p["nx"], p["ny"]), wall_axes=(1,))
    cfg = LBMConfig(
        geometry=geo,
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=0.9, rho_init=0.05),
        ),
        g_matrix=np.array([[0.0, p["g"]], [p["g"], 0.0]]),
        lattice=D2Q9,
        body_acceleration=(1e-6, 0.0),
        backend="reference",
    )
    solid = geo.solid_mask()
    return (
        ReferenceBackend(cfg, geo.shape, solid),
        FusedBackend(cfg, geo.shape, solid),
        cfg,
    )


class TestBackendProperties:
    """Hypothesis: parity holds for arbitrary small states, not just the
    hand-picked fixtures above."""

    @given(p=small_states)
    @settings(max_examples=20, deadline=None)
    def test_stream_parity(self, p):
        ref, fused, cfg = _property_pair(p)
        rng = np.random.default_rng(p["seed"])
        f = _random_f(rng, cfg)
        assert np.array_equal(ref.stream(f.copy()), fused.stream(f.copy()))

    @given(p=small_states)
    @settings(max_examples=20, deadline=None)
    def test_equilibrium_parity(self, p):
        ref, fused, cfg = _property_pair(p)
        rng = np.random.default_rng(p["seed"])
        shape = cfg.geometry.shape
        rho_n = rng.uniform(0.01, 2.0, size=shape)
        u = rng.uniform(-p["umax"], p["umax"], size=(2,) + shape)
        np.testing.assert_allclose(
            fused.equilibrium(rho_n, u),
            ref.equilibrium(rho_n, u),
            rtol=0.0,
            atol=ATOL,
        )

    @given(p=small_states)
    @settings(max_examples=20, deadline=None)
    def test_interaction_force_parity(self, p):
        ref, fused, cfg = _property_pair(p)
        rng = np.random.default_rng(p["seed"])
        psis = rng.uniform(0.0, 1.0, size=(2,) + cfg.geometry.shape)
        np.testing.assert_allclose(
            fused.shan_chen_force(psis.copy()),
            ref.shan_chen_force(psis.copy()),
            rtol=0.0,
            atol=ATOL,
        )

    @given(p=small_states)
    @settings(max_examples=10, deadline=None)
    def test_full_step_parity(self, p):
        geo = ChannelGeometry(shape=(p["nx"], p["ny"]), wall_axes=(1,))
        cfg = LBMConfig(
            geometry=geo,
            components=(
                ComponentSpec("water", tau=1.0, rho_init=1.0),
                ComponentSpec("air", tau=0.9, rho_init=0.05),
            ),
            g_matrix=np.array([[0.0, p["g"]], [p["g"], 0.0]]),
            lattice=D2Q9,
            body_acceleration=(1e-6, 0.0),
            backend="reference",
        )
        ref = MulticomponentLBM(cfg)
        fused = MulticomponentLBM(dataclasses.replace(cfg, backend="fused"))
        ref.run(5)
        fused.run(5)
        np.testing.assert_allclose(fused.f, ref.f, rtol=0.0, atol=ATOL)


#: Cross-sections per lattice dimension with Y*Z % 16 of 0, 4 and 12: the
#: remainder decides which BLAS micro-kernel a piece's last columns meet.
PIECE_CROSS_SECTIONS = {
    2: [(16,), (20,), (12,)],
    3: [(4, 4), (5, 4), (3, 4)],
}

piece_cases = st.fixed_dictionaries(
    {
        "lattice": st.sampled_from([D2Q9, D3Q19]),
        "cross": st.integers(0, 2),
        "nx": st.integers(2, 9),
        "seed": st.integers(0, 2**31 - 1),
    }
)


class TestFusedPieceIndependence:
    """The overlapped parallel schedule runs ``collide_bgk`` and
    ``moments`` on x-slabs of a rank's grid and must get the bits the
    full-grid call gives — everywhere, including the last sites of a
    piece (no wall or ghost node hides them here: nothing is solid and
    the collide mask is all ones)."""

    @given(p=piece_cases, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_slab_call_equals_full_grid_call(self, p, data):
        lattice = p["lattice"]
        nx = p["nx"]
        shape = (nx,) + PIECE_CROSS_SECTIONS[lattice.D][p["cross"]]
        a = data.draw(st.integers(0, nx - 1), label="a")
        e = data.draw(st.integers(a + 1, nx), label="e")
        cfg = LBMConfig(
            geometry=ChannelGeometry(shape=shape, wall_axes=()),
            components=(
                ComponentSpec("water", tau=1.0, rho_init=1.0, mass=1.5),
                ComponentSpec("air", tau=0.8, rho_init=0.03),
            ),
            g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
            lattice=lattice,
            backend="fused",
        )
        C, Q, D = 2, lattice.Q, lattice.D
        no_solid = np.zeros(shape, dtype=bool)
        full = FusedBackend(cfg, shape, no_solid)
        piece = FusedBackend(cfg, (e - a,) + shape[1:], no_solid[a:e])
        rng = np.random.default_rng(p["seed"])
        f = rng.uniform(0.01, 1.0, size=(C, Q) + shape)
        rho = rng.uniform(0.1, 2.0, size=(C,) + shape)
        u = rng.uniform(-0.05, 0.05, size=(C, D) + shape)
        mask = np.ones(shape)

        # moments: the driver serves pieces from the full-grid backend.
        rho_full, mom_full = np.empty_like(rho), np.empty_like(u)
        full.moments(f, rho_full, mom_full)
        rho_piece, mom_piece = np.empty_like(rho), np.empty_like(u)
        full.moments(f[:, :, a:e], rho_piece[:, a:e], mom_piece[:, :, a:e])
        assert np.array_equal(rho_piece[:, a:e], rho_full[:, a:e])
        assert np.array_equal(mom_piece[:, :, a:e], mom_full[:, :, a:e])

        # collide: each piece has its own backend instance.
        f_full, f_piece = f.copy(), f.copy()
        full.collide_bgk(f_full, rho, u, mask)
        piece.collide_bgk(
            f_piece[:, :, a:e], rho[:, a:e], u[:, :, a:e], mask[a:e]
        )
        assert np.array_equal(f_piece[:, :, a:e], f_full[:, :, a:e])

        feq_full = full.equilibrium(rho[0], u[0])
        feq_piece = piece.equilibrium(
            np.ascontiguousarray(rho[0, a:e]),
            np.ascontiguousarray(u[0][:, a:e]),
        )
        assert np.array_equal(feq_piece, feq_full[:, a:e])

    @pytest.mark.parametrize("a, e", [(0, 37), (1, 38), (20, 41), (36, 37)])
    def test_pieces_across_column_blocks(self, a, e):
        """N = 18 450 columns (N mod 16 = 2): the full-grid calls walk two
        column blocks, split inside plane 36, while these x-slab pieces
        split elsewhere or not at all -- the bits must not notice."""
        shape = (41, 30, 15)
        cfg = LBMConfig(
            geometry=ChannelGeometry(shape=shape, wall_axes=()),
            components=(
                ComponentSpec("water", tau=1.0, rho_init=1.0, mass=1.5),
                ComponentSpec("air", tau=0.8, rho_init=0.03),
            ),
            g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
            lattice=D3Q19,
            backend="fused",
        )
        no_solid = np.zeros(shape, dtype=bool)
        full = FusedBackend(cfg, shape, no_solid)
        piece = FusedBackend(cfg, (e - a,) + shape[1:], no_solid[a:e])
        rng = np.random.default_rng(a * 100 + e)
        f = rng.uniform(0.01, 1.0, size=(2, D3Q19.Q) + shape)
        rho = rng.uniform(0.1, 2.0, size=(2,) + shape)
        u = rng.uniform(-0.05, 0.05, size=(2, 3) + shape)
        mask = np.ones(shape)

        rho_full, mom_full = np.empty_like(rho), np.empty_like(u)
        full.moments(f, rho_full, mom_full)
        rho_piece, mom_piece = np.empty_like(rho), np.empty_like(u)
        full.moments(f[:, :, a:e], rho_piece[:, a:e], mom_piece[:, :, a:e])
        assert np.array_equal(rho_piece[:, a:e], rho_full[:, a:e])
        assert np.array_equal(mom_piece[:, :, a:e], mom_full[:, :, a:e])

        f_full, f_piece = f.copy(), f.copy()
        full.collide_bgk(f_full, rho, u, mask)
        piece.collide_bgk(
            f_piece[:, :, a:e], rho[:, a:e], u[:, :, a:e], mask[a:e]
        )
        assert np.array_equal(f_piece[:, :, a:e], f_full[:, :, a:e])

        feq_full = full.equilibrium(rho[1], u[1])
        feq_piece = piece.equilibrium(
            np.ascontiguousarray(rho[1, a:e]),
            np.ascontiguousarray(u[1][:, a:e]),
        )
        assert np.array_equal(feq_piece, feq_full[:, a:e])


def _traced_peak(fn):
    """(peak, retained) traced bytes over one call of *fn*."""
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - baseline, current - baseline


def _steps(solver, n: int) -> None:
    for _ in range(n):
        solver.step()


def _owned_nbytes(obj) -> int:
    """Bytes of the distinct ndarrays *obj* owns (``base is None``),
    reached through its attributes and any lists/tuples in them."""
    seen, total, todo = set(), 0, list(vars(obj).values())
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, np.ndarray) and x.base is None and id(x) not in seen:
            seen.add(id(x))
            total += x.nbytes
    return total


class TestFusedAllocationFree:
    @staticmethod
    def _assert_steady_steps_allocate_nothing(cfg):
        solver = MulticomponentLBM(cfg)
        solver.run(3)  # warm caches (omega tables, ufunc buffers)
        # Bare steps: a run ends with a health check, which computes the
        # final velocity field on purpose.
        peak, retained = _traced_peak(lambda: _steps(solver, 5))
        field_bytes = cfg.lattice.Q * np.prod(cfg.geometry.shape) * 8
        assert peak < min(64 * 1024, field_bytes / 4)
        # And nothing is retained across steps.
        assert retained < 16 * 1024

    def test_step_allocates_nothing_substantial(self):
        """At steady state a fused step must not allocate any field-sized
        array: everything lives in scratch buffers sized at construction.
        A (Q, *S) field here is ~107 KiB; allow a few KiB of slack for
        interpreter bookkeeping (views, scalars, frames)."""
        cfg = two_component_config(D3Q19, scenario="walls", backend="fused")
        self._assert_steady_steps_allocate_nothing(cfg)

    def test_padded_tail_step_allocates_nothing_substantial(self):
        """630 points (N % 16 == 6): every BLAS call also goes through
        the 16-wide tail scratch."""
        cfg = two_component_config(
            D3Q19, scenario="walls", backend="fused", shape=(10, 9, 7)
        )
        self._assert_steady_steps_allocate_nothing(cfg)

    def test_one_plane_piece_allocates_nothing_substantial(self):
        """The overlapped schedule's boundary strips: a one-plane backend
        colliding a slab view of ``f``, and the full backend taking that
        slab's moments (63 columns: body and tail of the BLAS split)."""
        cfg = two_component_config(
            D3Q19, scenario="walls", backend="fused", shape=(10, 9, 7)
        )
        solver = MulticomponentLBM(cfg)
        solver.run(3)
        sl = slice(4, 5)
        strip = FusedBackend(
            cfg, (1, 9, 7), np.ascontiguousarray(solver.solid[sl])
        )
        args = (solver.rho[:, sl], solver.u_eq[:, :, sl], solver._fluid_f[sl])
        mom = solver.mom[:, :, sl]

        def strip_phase():
            for _ in range(5):
                strip.collide_bgk(solver.f[:, :, sl], *args)
                solver.backend.moments(solver.f[:, :, sl], args[0], mom)

        strip_phase()  # warm the omega tables
        peak, retained = _traced_peak(strip_phase)
        assert peak < 64 * 1024
        assert retained < 16 * 1024

    @pytest.mark.parametrize(
        "lattice, shape",
        [(D2Q9, None), (D3Q19, None), (D3Q19, (10, 9, 7))],
        ids=["D2Q9", "D3Q19", "D3Q19-tail"],
    )
    def test_stream_is_in_place(self, lattice, shape):
        """Streaming shifts the populations where they lie: it returns
        its argument, allocates no population-sized buffer, and still
        gives ``np.roll``'s bits (630 points on the tail shape)."""
        ref, fused, cfg = _backend_pair(lattice, shape=shape)
        f = _random_f(np.random.default_rng(11), cfg)
        expected = ref.stream(ref.stream(f.copy()))
        fused.stream(f)  # warm
        returned = []
        peak, retained = _traced_peak(lambda: returned.append(fused.stream(f)))
        assert returned[0] is f
        assert np.array_equal(f, expected)
        assert peak < 64 * 1024
        assert retained < 16 * 1024

    def test_backend_owned_scratch_is_near_one_population_array(self):
        """The working-set pin: on the benchmark's 100x50x10 D3Q19
        channel the arrays a backend owns (``base is None``; counted
        before it first streams, after which it also references the
        ``f`` it streams in place) total at most 1.3x the population
        array -- no second population buffer, no grid-sized equilibrium
        or moment rows, one ``n_solid``-long bounce-back index."""
        cfg = dataclasses.replace(
            two_component_config(D3Q19, backend="fused"),
            geometry=ChannelGeometry(shape=(100, 50, 10), wall_axes=(1, 2)),
        )
        shape = cfg.geometry.shape
        backend = FusedBackend(cfg, shape, cfg.geometry.solid_mask())
        f_nbytes = cfg.n_components * cfg.lattice.Q * np.prod(shape) * 8
        assert _owned_nbytes(backend) <= 1.3 * f_nbytes

    def test_disabled_observability_stays_allocation_free(self, monkeypatch):
        """The zero-overhead guarantee: with no trace requested, the solver
        must hold a bare (uninstrumented) fused backend and the steady-state
        step must stay allocation-free — no spans, events, or wrapper frames
        on the hot path."""
        from repro.obs import NULL_OBSERVER, TRACE_ENV_VAR
        from repro.lbm.backends.fused import FusedBackend

        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        cfg = two_component_config(D3Q19, scenario="walls", backend="fused")
        solver = MulticomponentLBM(cfg)
        assert solver.observer is NULL_OBSERVER
        assert type(solver.backend) is FusedBackend
        solver.run(3)

        peak, retained = _traced_peak(lambda: _steps(solver, 5))
        field_bytes = cfg.lattice.Q * np.prod(cfg.geometry.shape) * 8
        assert peak < min(64 * 1024, field_bytes / 4)
        assert retained < 16 * 1024

    def test_enabled_observer_records_kernel_timings(self):
        """Opting in wraps the backend and fills per-kernel histograms —
        the fused results stay bit-identical to an untraced run."""
        from repro.obs import MemorySink, Observer
        from repro.lbm.backends.instrumented import InstrumentedBackend

        cfg = two_component_config(D2Q9, backend="fused")
        plain = MulticomponentLBM(cfg)
        traced = MulticomponentLBM(cfg, observer=Observer(sink=MemorySink()))
        assert isinstance(traced.backend, InstrumentedBackend)

        plain.run(3)
        traced.run(3)
        np.testing.assert_array_equal(traced.f, plain.f)

        metrics = traced.observer.registry.snapshot()
        for kernel in ("stream", "bounce_back", "collide_bgk", "moments"):
            hist = metrics[f"kernel.fused.{kernel}"]
            assert hist["count"] > 0 and hist["total"] > 0
            assert metrics[f"kernel.fused.{kernel}.points"]["value"] > 0
