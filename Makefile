.PHONY: install test lint bench bench-smoke experiments experiments-fast \
    trace-demo ckpt-demo serve-demo clean

# bench-smoke pipes into the floors tool and needs `set -o pipefail`.
SHELL := /bin/bash

install:
	pip install -e '.[test]'

test:
	pytest tests/

# Repo-specific AST invariant checkers, mypy/ruff error-count ratchet and
# the dead-code census.
# The ratchet skips tools that are not installed locally; CI installs them.
lint:
	PYTHONPATH=src python -m repro.analysis src
	python tools/lint_ratchet.py check
	python tools/dead_code.py check

bench:
	pytest benchmarks/ --benchmark-only

# One 3 s run of the end-to-end benchmark (bench/README.md), its result
# line held to the floors of tools/bench_floors.py.  pipefail: a run that
# crashed fails the recipe even if the floors tool were to pass.
floors = set -o pipefail; \
	python -m bench measure --workload $(1) --seed 1 --seconds 3 --trace $(2) \
	| python tools/bench_floors.py --workload $(1) --trace $(2)

# The benchmark's own tests, then short runs: the kernel path
# (channel_seq) and the served-sweep path (sweep_small) untraced, and
# traced sweep_small / serve_open runs whose counters carry the dedup,
# ensemble-vs-single and hit-rate floors.  Every run must verify
# (`correct`, `failed == 0`); no floor compares a time with a fixed number.
bench-smoke:
	python -m pytest bench/tests -q
	$(call floors,channel_seq,0)
	$(call floors,sweep_small,0)
	$(call floors,sweep_small,1)
	$(call floors,serve_open,1)

experiments:
	python -m repro.experiments.runner all

experiments-fast:
	python -m repro.experiments.runner all --fast

# Traced parallel run + paper-style summary rendered from the trace.
trace-demo:
	python examples/traced_parallel_run.py --trace run.jsonl
	python -m repro.obs.report summary run.jsonl

# Duplicate-heavy async client load served with content-addressed dedup;
# every result verified bit-identical to a direct run().
serve-demo:
	python examples/serve_demo.py

# Kill a checkpointed parallel run mid-flight, corrupt a shard, resume
# bit-exact; then inspect + verify the store through the CLI.
ckpt-demo:
	python examples/checkpoint_demo.py --store ckpt-demo
	python -m repro.ckpt inspect ckpt-demo
	python -m repro.ckpt verify ckpt-demo

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis \
	    benchmarks/reports .benchmarks ckpt-demo
	find . -name __pycache__ -type d -exec rm -rf {} +
