"""CLI for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments.runner all --fast
    python -m repro.experiments.runner fig9 table1
    repro-experiments fig7            # console script

``--fast`` shrinks phase counts / grids by roughly an order of magnitude
so the whole suite completes in a couple of minutes; default settings
match the paper's configurations (20 000-phase Figure 8 takes the
longest).
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable
from functools import partial

from repro.config import set_discovery_env
from repro.obs.observer import observer_from_env
from repro.parallel.launch import TRANSPORTS

from repro.experiments import (
    ext_adaptation,
    ext_resolution,
    ext_scenarios,
    ext_slip_sweep,
    fig3_disturbance,
    fig6_density,
    fig7_velocity,
    fig8_speedup,
    fig9_profile,
    fig10_schemes,
    table1_spikes,
)
from repro.experiments.report import Report

EXPERIMENTS: dict[str, Callable[..., Report]] = {
    "fig3": fig3_disturbance.run,
    "fig6": fig6_density.run,
    "fig7": fig7_velocity.run,
    "fig8": fig8_speedup.run,
    "fig8-transport": fig8_speedup.transports_run,
    "fig9": fig9_profile.run,
    "fig10": fig10_schemes.run,
    "table1": table1_spikes.run,
    "ext-adaptation": ext_adaptation.run,
    "ext-slip-sweep": ext_slip_sweep.run,
    "ext-resolution": ext_resolution.run,
    "fig-roughness": ext_scenarios.run_roughness,
    "fig-pattern": ext_scenarios.run_pattern,
}

ORDER = (
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig8-transport",
    "fig9",
    "fig10",
    "table1",
    "ext-adaptation",
    "ext-slip-sweep",
    "ext-resolution",
    "fig-roughness",
    "fig-pattern",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment ids, or 'all'",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="scaled-down settings (~10x fewer phases / smaller grids)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "write a repro.obs JSONL trace of the run: per-experiment "
            "spans here, plus solver/driver/simulator events from every "
            "instrumented layer (equivalent to REPRO_OBS_TRACE=PATH; "
            "inspect with 'python -m repro.obs.report summary PATH')"
        ),
    )
    parser.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default=None,
        help=(
            "parallel transport for every run in the process: 'threads' "
            "(in-process emulated ranks, the default) or 'processes' "
            "(forked ranks over shared memory; equivalent to "
            "REPRO_TRANSPORT=processes)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "checkpoint every solver run under DIR (repro.ckpt store; "
            "one subdirectory per configuration; equivalent to "
            "REPRO_CKPT_DIR=DIR)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        metavar="N",
        type=int,
        default=0,
        help="snapshot interval in steps (with --checkpoint-dir)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume each run from its latest good checkpoint under "
            "--checkpoint-dir (interrupted experiments continue "
            "bit-exactly)"
        ),
    )
    args = parser.parse_args(argv)

    if (args.checkpoint_every or args.resume) and not args.checkpoint_dir:
        parser.error("--checkpoint-every/--resume need --checkpoint-dir")
    # CLI flags are published as the same REPRO_* discovery variables a
    # user could have exported, so the instrumented layers (observer,
    # checkpoint policy, transport resolution) pick them up without any
    # per-experiment plumbing.
    set_discovery_env(
        trace=args.trace,
        transport=args.transport,
        ckpt_dir=args.checkpoint_dir,
        ckpt_every=args.checkpoint_every if args.checkpoint_dir else None,
        ckpt_resume=args.resume if args.checkpoint_dir else None,
    )
    obs = observer_from_env()

    names = list(ORDER) if "all" in args.experiments else args.experiments
    pair: dict = {}  # Figures 6 and 7 read one forced/control pair
    experiments = {
        **EXPERIMENTS,
        "fig6": partial(fig6_density.run, cache=pair),
        "fig7": partial(fig7_velocity.run, cache=pair),
    }
    for name in names:
        start = time.perf_counter()
        if obs.enabled:
            obs.emit("experiment_start", name=name, fast=args.fast)
        report = experiments[name](fast=args.fast)
        elapsed = time.perf_counter() - start
        if obs.enabled:
            obs.emit("experiment_end", name=name, duration=elapsed)
        print(report)
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    if obs.enabled:
        obs.emit_metrics()
        obs.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
