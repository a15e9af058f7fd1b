import numpy as np
import pytest

from repro.core.partition import SlicePartition
from repro.core.policies import (
    POLICY_NAMES,
    DiffusionPolicy,
    FilteredPolicy,
    make_policy,
)


class TestDiffusionPolicy:
    def times(self, part, slow):
        t = part.point_counts().astype(float) * 1e-5
        for i, a in slow.items():
            t[i] /= a
        return t

    def test_registered(self):
        assert "diffusion" in POLICY_NAMES
        assert make_policy("diffusion").name == "diffusion"

    def test_moves_toward_slow_balance(self):
        part = SlicePartition.even(80, 4, 100)
        policy = DiffusionPolicy()
        flows = policy.decide(part, self.times(part, {1: 0.5}))
        part.apply_edge_flows(flows)
        assert part.planes(1) < 20

    def test_slower_than_filtered(self):
        """Diffusion is pairwise and unboosted: a single step moves less
        off the slow node than the filtered scheme's evacuation."""
        part_d = SlicePartition.even(80, 4, 100)
        part_f = SlicePartition.even(80, 4, 100)
        times = self.times(part_d, {1: 0.35})
        moved_d = np.abs(DiffusionPolicy().decide(part_d, times)).sum()
        moved_f = np.abs(FilteredPolicy().decide(part_f, times)).sum()
        assert moved_d < moved_f

    def test_balanced_stays_put(self):
        part = SlicePartition.even(80, 4, 100)
        flows = DiffusionPolicy().decide(part, self.times(part, {}))
        assert not flows.any()

    def test_conserves_and_feasible(self):
        part = SlicePartition([2, 30, 2, 30], 100)
        flows = DiffusionPolicy().decide(
            part, self.times(part, {0: 0.4, 2: 0.6})
        )
        part.apply_edge_flows(flows)
        assert part.total_planes == 64
        assert (part.plane_counts() >= 1).all()

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            DiffusionPolicy(diffusion_rate=0.0)
        with pytest.raises(ValueError):
            DiffusionPolicy(diffusion_rate=1.5)

    def test_rate_scales_transfer(self):
        part = SlicePartition.even(200, 4, 100)
        times = self.times(part, {1: 0.3})
        slow_flow = np.abs(
            DiffusionPolicy(diffusion_rate=0.25).decide(part.copy(), times)
        ).sum()
        fast_flow = np.abs(
            DiffusionPolicy(diffusion_rate=1.0).decide(part.copy(), times)
        ).sum()
        assert fast_flow > slow_flow


class TestDiffusionOnCluster:
    def test_diffusion_between_noremap_and_filtered(self):
        from repro.cluster.machine import paper_cluster
        from repro.cluster.simulator import simulate
        from repro.cluster.workload import fixed_slow_traces

        totals = {}
        for name in ("no-remap", "diffusion", "filtered"):
            spec = paper_cluster(fixed_slow_traces(20, [9]))
            totals[name] = simulate(spec, make_policy(name), 400).total_time
        assert totals["filtered"] < totals["diffusion"] < totals["no-remap"]
