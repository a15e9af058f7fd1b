"""Laplace-law validation of the two-component Shan-Chen coupling:
a suspended droplet's pressure jump scales like sigma / R."""

import numpy as np
import pytest

from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM


def mixture_pressure(solver: MulticomponentLBM) -> np.ndarray:
    """Bulk pressure field of the two-component S-C system (psi = rho):

    ``p = cs2 sum_s rho_s + (cs2 / 2) sum_{s s'} g_{ss'} rho_s rho_s'``.
    """
    cfg = solver.config
    cs2 = cfg.lattice.cs2
    rho = solver.rho
    interaction = np.einsum("ab,a...,b...->...", cfg.g_matrix, rho, rho)
    return cs2 * rho.sum(axis=0) + 0.5 * cs2 * interaction


def droplet_config(box: int = 64, *, g_cross: float = 0.9) -> LBMConfig:
    """Periodic water/air box for droplet (Laplace-law) tests."""
    return LBMConfig(
        geometry=ChannelGeometry(shape=(box, box), wall_axes=()),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, g_cross], [g_cross, 0.0]]),
        lattice=D2Q9,
    )


def run_droplet(
    config: LBMConfig, radius: float, *, steps: int = 3000
) -> MulticomponentLBM:
    """Relax a circular droplet of the first component suspended in the
    second on a periodic box (tanh profile, interface width 2)."""
    shape = config.geometry.shape
    if radius > min(shape) / 2 - 4:
        raise ValueError(f"radius {radius} too large for box {shape}")
    solver = MulticomponentLBM(config)
    center = [(n - 1) / 2.0 for n in shape]
    grids = np.meshgrid(
        *[np.arange(n, dtype=np.float64) for n in shape], indexing="ij"
    )
    r = np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, center)))
    inside = 0.5 * (1.0 - np.tanh((r - radius) / 2.0))
    hi = config.components[0].rho_init
    lo = config.components[1].rho_init
    rhos = np.stack(
        [lo + (hi - lo) * inside, lo + (hi - lo) * (1.0 - inside)]
    )
    solver.initialize_equilibrium(
        rhos, np.zeros((config.lattice.D,) + shape, dtype=np.float64)
    )
    solver.run(steps, check_every=max(1, steps // 4))
    return solver


def laplace_pressure_jump(solver: MulticomponentLBM) -> float:
    """Pressure difference between the droplet core and the far field
    (Laplace's law: delta p = sigma / R in 2-D)."""
    p = mixture_pressure(solver)
    center = tuple(n // 2 for n in solver.config.geometry.shape)
    return float(p[center] - p[:3, :3].mean())


def measured_radius(solver) -> float:
    rho = solver.rho[0]
    threshold = 0.5 * (rho.max() + rho.min())
    return float(np.sqrt((rho > threshold).sum() / np.pi))


@pytest.fixture(scope="module")
def droplets():
    """Two relaxed droplets of different radii at a solidly immiscible
    coupling (g = 1.3; weaker couplings let small droplets dissolve)."""
    out = []
    for radius in (12.0, 18.0):
        cfg = droplet_config(64, g_cross=1.3)
        solver = run_droplet(cfg, radius, steps=4000)
        out.append(solver)
    return out


class TestLaplaceLaw:
    def test_pressure_higher_inside(self, droplets):
        for solver in droplets:
            assert laplace_pressure_jump(solver) > 0

    def test_smaller_droplet_higher_pressure(self, droplets):
        small, large = droplets
        dp_small = laplace_pressure_jump(small) / 1
        dp_large = laplace_pressure_jump(large)
        assert measured_radius(small) < measured_radius(large)
        assert dp_small > dp_large

    def test_surface_tension_consistent(self, droplets):
        """sigma = dp * R must agree across radii (Laplace's law)."""
        sigmas = [
            laplace_pressure_jump(s) * measured_radius(s) for s in droplets
        ]
        assert sigmas[0] == pytest.approx(sigmas[1], rel=0.35)

    def test_droplet_survives(self, droplets):
        for solver in droplets:
            assert measured_radius(solver) > 5.0

    def test_mass_conserved(self, droplets):
        for solver in droplets:
            # Total mass fixed by the tanh initialization.
            assert np.isfinite(solver.total_mass())
            assert solver.total_mass() > 0


class TestMixturePressure:
    def test_uniform_state_pressure(self):
        """On the uniform initial mixture the pressure field equals the
        closed form cs2 (rho_w + rho_a) + cs2 g rho_w rho_a everywhere."""
        cfg0 = droplet_config(16, g_cross=1.3)
        s = MulticomponentLBM(cfg0)
        p = mixture_pressure(s)
        cs2 = cfg0.lattice.cs2
        rho_tot = 1.0 + 0.03
        expected = cs2 * rho_tot + cs2 * 1.3 * 1.0 * 0.03
        assert np.allclose(p, expected)

    def test_run_droplet_radius_validated(self):
        cfg = droplet_config(32)
        with pytest.raises(ValueError, match="radius"):
            run_droplet(cfg, 30.0, steps=10)
