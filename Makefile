.PHONY: install test lint bench bench-smoke bench-kernels bench-transport \
    bench-halo bench-serve bench-sweep experiments experiments-fast trace-demo \
    ckpt-demo serve-demo clean

install:
	pip install -e '.[test]'

test:
	pytest tests/

# Repo-specific AST invariant checkers + mypy/ruff error-count ratchet.
# The ratchet skips tools that are not installed locally; CI installs them.
lint:
	PYTHONPATH=src python -m repro.analysis src
	python tools/lint_ratchet.py check

bench:
	pytest benchmarks/ --benchmark-only

# The end-to-end benchmark's own tests plus two 3 s untraced runs: the
# kernel path (channel_seq) and the served-sweep path (sweep_small, whose
# verification is "served results equal a direct api.run").  `measure`
# exits non-zero when the run crashed or a result failed verification
# (`failed != 0`); no timing is judged (shared runners).
bench-smoke:
	python -m pytest bench/tests -q
	python -m bench measure --workload channel_seq --seed 1 --seconds 3 --trace 0
	python -m bench measure --workload sweep_small --seed 1 --seconds 3 --trace 0

# Side-by-side kernel-backend timings; writes BENCH_kernels.json.
bench-kernels:
	pytest benchmarks/test_bench_kernels.py --benchmark-only

# Threads vs. processes on the identical run; writes BENCH_transport.json.
bench-transport:
	pytest benchmarks/test_bench_transport.py --benchmark-only

# Overlapped vs. blocking halo schedule over an emulated-latency link;
# writes BENCH_halo.json (exposed communication time per schedule).
bench-halo:
	pytest benchmarks/test_bench_halo.py --benchmark-only

# Scheduler vs. naive sequential submission under duplicate-heavy load;
# writes BENCH_serve.json (also available as the fig-serve experiment).
bench-serve:
	python -m repro.experiments.runner fig-serve

# One MC sweep per wall-physics scenario served with dedup; every sample
# verified bit-identical to a standalone run; writes BENCH_sweep.json.
bench-sweep:
	python -m repro.sweep --json BENCH_sweep.json

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
