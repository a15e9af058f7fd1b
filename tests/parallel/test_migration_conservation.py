"""Conservation through migration, asserted from trace events only.

The driver emits ``remap_begin``/``remap_end`` events carrying each
rank's interior per-component mass and momentum.  Migration moves raw
population planes between ranks, so at every remap round the totals
summed across ranks must be identical before and after the transfer —
whatever the policy decided.  The test never touches driver internals:
everything is read back from the observability trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.obs import MemorySink, Observer


def config(backend="reference"):
    return LBMConfig(
        geometry=ChannelGeometry(shape=(18, 12), wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=0.8, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        wall_force=None,
        body_acceleration=(2e-6, 0.0),
        backend=backend,
    )


def forced_migration_load_fn(rank, phase, points):
    """Rank 0 always looks 3x slower -> every remap round moves planes."""
    return 3.0 if rank == 0 else 1.0


def traced_run(n_ranks=2, phases=10, interval=5, policy="filtered"):
    observer = Observer(sink=MemorySink())
    run(
        RunSpec(
            config=config(),
            phases=phases,
            ranks=n_ranks,
            policy=policy,
            remap_config=RemappingConfig(interval=interval, history=interval),
            load_time_fn=forced_migration_load_fn,
            observer=observer,
        )
    )
    return observer.sink.events


def totals_by_round(events, type_):
    """Sum mass/momentum across ranks for every remap round, from the
    ``remap_begin`` or ``remap_end`` events alone."""
    rounds: dict[int, dict] = {}
    for ev in events:
        if ev["type"] != type_:
            continue
        agg = rounds.setdefault(
            ev["round"],
            {"mass": None, "momentum": None, "planes": 0, "ranks": 0},
        )
        mass = np.asarray(ev["mass"])
        momentum = np.asarray(ev["momentum"])
        agg["mass"] = mass if agg["mass"] is None else agg["mass"] + mass
        agg["momentum"] = (
            momentum if agg["momentum"] is None
            else agg["momentum"] + momentum
        )
        agg["planes"] += ev["planes"]
        agg["ranks"] += 1
    return rounds


@pytest.mark.parametrize("n_ranks,policy", [(2, "filtered"), (3, "global")])
class TestMigrationConservation:
    def test_mass_and_momentum_invariant_across_migration(
        self, n_ranks, policy
    ):
        events = traced_run(n_ranks=n_ranks, policy=policy)
        migrations = [e for e in events if e["type"] == "migrate"]
        assert migrations, "the forced load skew must trigger migration"

        before = totals_by_round(events, "remap_begin")
        after = totals_by_round(events, "remap_end")
        assert set(before) == set(after) and before
        for rnd in before:
            assert before[rnd]["ranks"] == n_ranks
            assert after[rnd]["ranks"] == n_ranks
            # Planes are conserved exactly; mass/momentum up to the
            # re-summation order across the new slab boundaries.
            assert before[rnd]["planes"] == after[rnd]["planes"]
            np.testing.assert_allclose(
                after[rnd]["mass"], before[rnd]["mass"], rtol=1e-12
            )
            # Momenta are sums of many near-cancelling terms, so the
            # regrouped summation is a little noisier than the mass.
            np.testing.assert_allclose(
                after[rnd]["momentum"],
                before[rnd]["momentum"],
                rtol=1e-9,
                atol=1e-14,
            )

    def test_planes_actually_moved(self, n_ranks, policy):
        events = traced_run(n_ranks=n_ranks, policy=policy)
        before = totals_by_round(events, "remap_begin")
        first = min(before)
        sent = sum(
            e["planes"]
            for e in events
            if e["type"] == "migrate"
            and e["action"] == "send"
            and e["round"] == first
        )
        assert sent > 0
