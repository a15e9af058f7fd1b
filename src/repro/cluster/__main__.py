"""``python -m repro.cluster`` — the cluster availability CLI."""

from repro.cluster.scenario import main

if __name__ == "__main__":
    raise SystemExit(main())
