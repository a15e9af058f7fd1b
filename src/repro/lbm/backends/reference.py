"""The ``reference`` backend: the original, readable NumPy kernels.

This backend reproduces the pre-backend solver code paths exactly — the
same functions, the same operation order, the same floating-point
results.  It is the differential-testing baseline for every optimised
backend and the implementation of record for the physics.
"""

from __future__ import annotations

import numpy as np

from repro.lbm.backends.registry import KernelBackend
from repro.lbm.boundary import bounce_back
from repro.lbm.equilibrium import equilibrium
from repro.lbm.macroscopic import (
    common_velocity,
    component_density,
    component_momentum,
)
from repro.lbm.shan_chen import interaction_force
from repro.lbm.streaming import stream


class ReferenceBackend(KernelBackend):
    """Per-component loops over the module-level kernels."""

    name = "reference"

    def __init__(self, config, shape, solid_mask):
        super().__init__(config, shape, solid_mask)
        self._feq = np.zeros((self.lattice.Q,) + self.shape, dtype=np.float64)

    def stream(self, f: np.ndarray) -> np.ndarray:
        for ci in range(f.shape[0]):
            stream(f[ci], self.lattice)
        return f

    def bounce_back(self, f: np.ndarray) -> None:
        for ci in range(f.shape[0]):
            bounce_back(f[ci], self.solid_mask, self.lattice)

    def equilibrium(
        self, rho_n: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return equilibrium(rho_n, u, self.lattice, out=out)

    def collide_bgk(
        self,
        f: np.ndarray,
        rho: np.ndarray,
        u_eq: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        lat = self.lattice
        for ci in range(self.n_components):
            feq = equilibrium(
                rho[ci] / self.masses[ci], u_eq[ci], lat, out=self._feq
            )
            omega = 1.0 / self.taus[ci]
            # f += omega * (feq - f) on masked nodes only; vectorised with a
            # float mask to avoid fancy-indexing copies in the hot loop.
            feq -= f[ci]
            feq *= omega * mask
            f[ci] += feq

    def shan_chen_force(
        self, psis: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        forces = interaction_force(psis, self.g_matrix, self.lattice)
        if out is None:
            return forces
        out[:] = forces
        return out

    def moments(
        self, f: np.ndarray, rho_out: np.ndarray, mom_out: np.ndarray
    ) -> None:
        lat = self.lattice
        for ci in range(self.n_components):
            rho_out[ci] = component_density(f[ci], self.masses[ci])
            mom_out[ci] = component_momentum(f[ci], lat, self.masses[ci])

    def forces_and_velocities(
        self,
        rho: np.ndarray,
        mom: np.ndarray,
        force: np.ndarray,
        u_eq: np.ndarray,
        *,
        accel: np.ndarray,
        psi_mask: np.ndarray,
        vel_mask: np.ndarray,
        adhesion: tuple[float, ...] | None = None,
        wall_field: np.ndarray | None = None,
    ) -> np.ndarray:
        psis = rho * psi_mask  # psi(rho) = rho
        sc = self.shan_chen_force(psis)

        force[:] = sc
        force += accel * rho[:, None]
        if adhesion is not None and wall_field is not None:
            for ci, g_ads in enumerate(adhesion):
                if g_ads != 0.0:
                    force[ci] -= g_ads * psis[ci][None] * wall_field

        u_common = common_velocity(rho, mom, self.taus)
        for ci in range(self.n_components):
            safe_rho = np.maximum(rho[ci], 1e-300)
            u_eq[ci] = u_common + self.taus[ci] * force[ci] / safe_rho
            u_eq[ci] *= vel_mask
        return psis
