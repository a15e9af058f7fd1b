"""Micro-benchmarks of the LBM hot-loop kernels (collision, streaming,
S-C force, full phase) — the per-point costs that the cluster model's
``cost_per_point`` abstracts — plus end-to-end batched-ensemble
throughput.

Every kernel benchmark runs once per kernel backend (``reference``,
``fused``) so the backends are measured side by side; the
per-point timings land in ``BENCH_kernels.json`` at the repository
root, with the full-phase speedup of ``fused`` over ``reference``
computed when both are present.  The ensemble benchmarks run a
wall-force sweep of N members end to end — once stacked through the
ensemble's kernels, once as N sequential ``fused`` solver runs — and
record µs per point per member step plus the scenarios-per-second
throughput for each N, the amortisation curve of
:mod:`repro.lbm.ensemble`.  Under ``--benchmark-disable`` everything
still executes once (a smoke test) but no timings are recorded.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.lbm.components import ComponentSpec
from repro.lbm.ensemble import EnsembleSpec, run_ensemble
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM

SHAPE_3D = (32, 48, 12)
POINTS = int(np.prod(SHAPE_3D))
BACKENDS = ("reference", "fused")
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: Ensemble benchmark scenario: a 2-D channel wall-force sweep.  The
#: grid is deliberately small — parameter sweeps over many small
#: scenarios are exactly where stacking amortises the per-call
#: interpreter overhead that dominates a sequential sweep; on large
#: grids both paths are memory-bound and converge to the same cost.
ENSEMBLE_SIZES = (1, 4, 16, 64)
ENSEMBLE_SHAPE = (12, 12)
ENSEMBLE_POINTS = int(np.prod(ENSEMBLE_SHAPE))
ENSEMBLE_STEPS = 64

#: ``{N: {batched_us_per_point, sequential_us_per_point, ...}}``,
#: filled by the ensemble benchmarks and folded into BENCH_kernels.json
#: by the ``bench_record`` teardown.
_ENSEMBLE_RESULTS: dict[int, dict[str, float]] = {}


@pytest.fixture(scope="module")
def bench_record():
    """Collect ``{benchmark: {backend: us_per_point}}`` across the module
    and write BENCH_kernels.json when the module finishes."""
    results: dict[str, dict[str, float]] = {}
    yield results
    if not results and not _ENSEMBLE_RESULTS:
        return
    for timings in results.values():
        if "reference" in timings and "fused" in timings:
            timings["speedup_vs_reference"] = round(
                timings["reference"] / timings["fused"], 2
            )
    sizes: dict[str, dict[str, float]] = {}
    for n, vals in sorted(_ENSEMBLE_RESULTS.items()):
        vals = dict(vals)
        if "batched_us_per_point" in vals and "sequential_us_per_point" in vals:
            vals["speedup_vs_sequential"] = round(
                vals["sequential_us_per_point"] / vals["batched_us_per_point"],
                2,
            )
        sizes[str(n)] = vals
    payload = {
        "shape": list(SHAPE_3D),
        "n_components": 2,
        "lattice": "D3Q19",
        "unit": "us_per_point",
        "benchmarks": results,
        "batched": {
            "shape": list(ENSEMBLE_SHAPE),
            "lattice": "D2Q9",
            "n_components": 2,
            "steps": ENSEMBLE_STEPS,
            "sweep": "wall_force_amplitude",
            "sequential_backend": "fused",
            "sizes": sizes,
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _record(bench_record, benchmark, name: str, backend: str) -> None:
    if benchmark.stats is None:  # --benchmark-disable smoke run
        return
    us_per_point = benchmark.stats["mean"] / POINTS * 1e6
    benchmark.extra_info["us_per_point"] = round(us_per_point, 4)
    bench_record.setdefault(name, {})[backend] = round(us_per_point, 4)


@pytest.fixture(scope="module", params=BACKENDS)
def backend_solver(request):
    geo = ChannelGeometry(shape=SHAPE_3D)
    comps = (
        ComponentSpec("water", tau=1.0, rho_init=1.0),
        ComponentSpec("air", tau=1.0, rho_init=0.03),
    )
    cfg = LBMConfig(
        geometry=geo,
        components=comps,
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        wall_force=WallForceSpec(amplitude=0.1),
        body_acceleration=(2e-7, 0.0, 0.0),
        backend=request.param,
    )
    solver = MulticomponentLBM(cfg)
    solver.run(5)  # warm state (interface formed, scratch/caches primed)
    return request.param, solver


def test_bench_equilibrium_kernel(benchmark, backend_solver, bench_record):
    name, solver = backend_solver
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.5, 1.5, SHAPE_3D)
    u = rng.uniform(-0.05, 0.05, (3, *SHAPE_3D))
    out = np.empty((19, *SHAPE_3D))
    kernel = solver.backend
    benchmark(lambda: kernel.equilibrium(rho, u, out=out))
    _record(bench_record, benchmark, "equilibrium", name)


def test_bench_streaming_kernel(benchmark, backend_solver, bench_record):
    name, solver = backend_solver
    rng = np.random.default_rng(1)
    kernel = solver.backend
    state = {"f": rng.random((2, 19, *SHAPE_3D))}

    def step():
        # The fused backend returns its double buffer: rebind like the
        # solver does (f = backend.stream(f)).
        state["f"] = kernel.stream(state["f"])

    benchmark(step)
    _record(bench_record, benchmark, "streaming", name)


def test_bench_shan_chen_force(benchmark, backend_solver, bench_record):
    name, solver = backend_solver
    rng = np.random.default_rng(2)
    psis = rng.uniform(0.0, 1.0, (2, *SHAPE_3D))
    out = np.empty((2, 3, *SHAPE_3D))
    kernel = solver.backend
    benchmark(lambda: kernel.shan_chen_force(psis, out=out))
    _record(bench_record, benchmark, "shan_chen_force", name)


def test_bench_bounce_back(benchmark, backend_solver, bench_record):
    name, solver = backend_solver
    kernel = solver.backend
    f = solver.f.copy()
    benchmark(lambda: kernel.bounce_back(f))
    _record(bench_record, benchmark, "bounce_back", name)


def test_bench_moments(benchmark, backend_solver, bench_record):
    name, solver = backend_solver
    kernel = solver.backend
    f = solver.f
    rho = np.empty_like(solver.rho)
    mom = np.empty_like(solver.mom)
    benchmark(lambda: kernel.moments(f, rho, mom))
    _record(bench_record, benchmark, "moments", name)


def test_bench_full_phase(benchmark, backend_solver, bench_record):
    name, solver = backend_solver
    benchmark(solver.step)
    _record(bench_record, benchmark, "full_phase", name)
    benchmark.extra_info["paper_us_per_point_on_2003_xeon"] = 4.9


# -------------------------------------------------------------- ensembles
def _ensemble_spec(n: int) -> EnsembleSpec:
    """A wall-force-amplitude sweep of *n* members (paper Figure 7's
    slip-length control parameter)."""
    base = LBMConfig(
        geometry=ChannelGeometry(shape=ENSEMBLE_SHAPE),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        wall_force=WallForceSpec(amplitude=0.1),
        body_acceleration=(2e-7, 0.0),
        backend="fused",
    )
    amplitudes = [0.05 + 0.3 * i / max(n - 1, 1) for i in range(n)]
    return EnsembleSpec.wall_force_sweep(base, amplitudes)


@pytest.mark.parametrize("n", ENSEMBLE_SIZES)
def test_bench_ensemble_batched(benchmark, bench_record, n):
    """End-to-end batched sweep: construct the stacked engine and run
    every member for ENSEMBLE_STEPS phases in one array pass per step."""
    spec = _ensemble_spec(n)
    benchmark(lambda: run_ensemble(spec, ENSEMBLE_STEPS))
    if benchmark.stats is None:  # --benchmark-disable smoke run
        return
    mean = benchmark.stats["mean"]
    us_per_point = mean / (n * ENSEMBLE_STEPS * ENSEMBLE_POINTS) * 1e6
    row = _ENSEMBLE_RESULTS.setdefault(n, {})
    row["batched_us_per_point"] = round(us_per_point, 4)
    row["throughput_scenarios_per_s"] = round(n / mean, 2)
    benchmark.extra_info["us_per_point"] = round(us_per_point, 4)


@pytest.mark.parametrize("n", ENSEMBLE_SIZES)
def test_bench_ensemble_sequential(benchmark, bench_record, n):
    """The same sweep as N independent sequential ``fused`` solver runs —
    the baseline the batched engine's throughput is judged against."""
    spec = _ensemble_spec(n)

    def run_all():
        for i in range(n):
            MulticomponentLBM(spec.member_config(i)).run(ENSEMBLE_STEPS)

    benchmark(run_all)
    if benchmark.stats is None:  # --benchmark-disable smoke run
        return
    mean = benchmark.stats["mean"]
    us_per_point = mean / (n * ENSEMBLE_STEPS * ENSEMBLE_POINTS) * 1e6
    row = _ENSEMBLE_RESULTS.setdefault(n, {})
    row["sequential_us_per_point"] = round(us_per_point, 4)
    row["sequential_throughput_scenarios_per_s"] = round(n / mean, 2)
