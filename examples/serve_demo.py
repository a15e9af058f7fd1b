"""Simulation-as-a-service demo: duplicate-heavy client load against
the repro.serve scheduler.

Three async clients submit an overlapping stream of microchannel specs
(a hydrophobicity sweep where most submissions repeat an earlier one).
The scheduler executes each distinct physics exactly once — batching
compatible specs into one stacked ensemble — and every client still
receives a result bit-identical to a direct ``repro.api.run()`` call.

    python examples/serve_demo.py
    python examples/serve_demo.py --jobs 32 --duplicates 0.75
"""

import argparse
import asyncio
import dataclasses

import numpy as np

from repro.api import RunSpec, run, spec_fingerprint
from repro.lbm import ChannelGeometry, ComponentSpec, D2Q9, LBMConfig, WallForceSpec
from repro.serve import Scheduler


def make_specs(jobs: int, duplicates: float, seed: int = 42) -> list[RunSpec]:
    """A shuffled stream of *jobs* small channel specs, a *duplicates*
    share of which repeat an earlier wall-force amplitude."""
    rng = np.random.default_rng(seed)
    base = LBMConfig(
        geometry=ChannelGeometry(shape=(12, 18), wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        wall_force=WallForceSpec(amplitude=0.05, decay_length=2.0),
        body_acceleration=(1e-6, 0.0),
    )
    n_unique = max(1, round(jobs * (1.0 - duplicates)))
    amplitudes = list(0.02 + 0.08 * rng.random(n_unique))
    amplitudes += list(rng.choice(amplitudes, size=jobs - n_unique))
    return [
        RunSpec(
            config=dataclasses.replace(
                base, wall_force=dataclasses.replace(base.wall_force, amplitude=float(a))
            ),
            phases=8,
        )
        for a in rng.permutation(amplitudes)
    ]


async def client(name, sched, specs, out):
    for spec in specs:
        job = await sched.submit(spec)
        result = await sched.result(job)
        status = sched.status(job)
        out.append((name, job, status.deduped, spec, result))


async def serve(jobs: int, duplicates: float) -> None:
    specs = make_specs(jobs, duplicates)
    out: list = []
    async with Scheduler(workers=2) as sched:
        await asyncio.gather(
            *(
                client(f"client-{c}", sched, specs[c::3], out)
                for c in range(3)
            )
        )
        print(
            f"{sched.submissions} submissions -> {sched.executions} "
            f"executions (hit rate {sched.hit_rate():.2f}, dedup "
            f"{sched.dedup_ratio():.2f})"
        )

    # every served result is bit-identical to a direct run()
    reference: dict = {}
    for name, job, deduped, spec, result in out:
        key = spec_fingerprint(spec)
        if key not in reference:
            reference[key] = run(spec)
        assert np.array_equal(result.f, reference[key].f)
        tag = "dedup" if deduped else "exec "
        print(f"  {name} {job} [{tag}] key={key[:12]}")
    print(f"verified: {len(out)} served results bit-identical to run()")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=18)
    parser.add_argument("--duplicates", type=float, default=0.67)
    args = parser.parse_args()
    asyncio.run(serve(args.jobs, args.duplicates))


if __name__ == "__main__":
    main()
