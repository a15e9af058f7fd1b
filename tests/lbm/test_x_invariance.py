"""The paper's channel is periodic in x and its walls are x-invariant, so
its flow is exactly that of a one-plane copy: a run at x extent 1, tiled
along x, is bit for bit the run at a larger extent, on every backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.experiments.channel import channel_config
from repro.scenarios import HomogeneousScenario


@pytest.mark.parametrize("backend", ["fused", "reference"])
@pytest.mark.parametrize("cross", [(24,), (20, 6)], ids=["D2Q9", "D3Q19"])
def test_one_plane_tiled_along_x_is_the_wider_run(backend, cross):
    def f_at(nx: int) -> np.ndarray:
        config = channel_config((nx, *cross), HomogeneousScenario()).replace(
            backend=backend
        )
        return run(RunSpec(config=config, phases=200)).f

    one, three = f_at(1), f_at(3)
    assert np.array_equal(np.concatenate([one] * 3, axis=2), three)
