"""``python -m repro.ckpt`` — inspect, verify and prune checkpoint stores.

Subcommands
-----------
``inspect DIR``
    List every generation: step, commit status, shard count, planes,
    bytes.  ``--json`` emits a machine-readable document.
``verify DIR``
    Re-hash every shard of the latest generation (or ``--step N`` /
    ``--all``).  Exits non-zero when anything fails verification —
    the CI hook for "is this checkpoint restorable?".
``prune DIR --keep-last N [--keep-every M]``
    Apply a retention policy in place and list what was removed.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.ckpt.store import CheckpointStore
from repro.util.tables import format_table


def _store(path: str) -> CheckpointStore:
    return CheckpointStore(path, keep_last=0)  # CLI never auto-prunes


def _cmd_inspect(args: argparse.Namespace) -> int:
    store = _store(args.store)
    docs = [
        {
            "step": info.step,
            "committed": info.committed,
            "problem": info.problem,
            "shards": len(m.shards) if (m := info.manifest) else None,
            "planes": m.total_planes if m else None,
            "bytes": m.total_bytes if m else None,
        }
        for info in store.generations()
    ]
    if args.json:
        print(json.dumps(docs, indent=2))
        return 0
    if not docs:
        print(f"{args.store}: no generations")
        return 0
    counts = ("shards", "planes", "bytes")
    rows = [
        (
            doc["step"],
            "committed" if doc["committed"] else doc["problem"] or "uncommitted",
            *("-" if doc[key] is None else doc[key] for key in counts),
        )
        for doc in docs
    ]
    print(format_table(["step", "status", *counts], rows, title=args.store))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    store = _store(args.store)
    infos = store.generations()
    if args.step is not None:
        steps = [args.step]
    elif args.all:
        steps = [info.step for info in infos]
    else:
        committed = [info.step for info in infos if info.committed]
        if not committed:
            print(f"{args.store}: no committed generation to verify")
            return 1
        steps = [committed[-1]]
    failures = 0
    for step in steps:
        problems = store.verify_generation(step)
        if problems:
            failures += 1
            for problem in problems:
                print(f"step {step}: FAIL: {problem}")
        else:
            print(f"step {step}: ok")
    return 1 if failures else 0


def _cmd_prune(args: argparse.Namespace) -> int:
    store = _store(args.store)
    removed = store.prune(
        keep_last=args.keep_last, keep_every=args.keep_every
    )
    if removed:
        print(f"removed {len(removed)} generation(s): {removed}")
    else:
        print("nothing to remove")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description="Inspect, verify and prune repro checkpoint stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="list generations")
    p_inspect.add_argument("store", help="checkpoint store directory")
    p_inspect.add_argument("--json", action="store_true")
    p_inspect.set_defaults(fn=_cmd_inspect)

    p_verify = sub.add_parser(
        "verify", help="re-hash shards; exit 1 on any failure"
    )
    p_verify.add_argument("store", help="checkpoint store directory")
    p_verify.add_argument("--step", type=int, default=None)
    p_verify.add_argument(
        "--all", action="store_true", help="verify every generation"
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_prune = sub.add_parser("prune", help="apply a retention policy")
    p_prune.add_argument("store", help="checkpoint store directory")
    p_prune.add_argument("--keep-last", type=int, required=True)
    p_prune.add_argument("--keep-every", type=int, default=0)
    p_prune.set_defaults(fn=_cmd_prune)

    args = parser.parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
