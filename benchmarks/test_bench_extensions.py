"""Benchmarks for the extension experiments (adaptation speed, all
five policies side by side)."""

from repro.cluster.machine import paper_cluster
from repro.cluster.simulator import simulate
from repro.cluster.workload import fixed_slow_traces
from repro.core.policies import POLICY_NAMES, make_policy
from repro.experiments import ext_adaptation


def test_bench_all_policies_one_slow_node(benchmark, save_report):
    """All five policies (incl. the diffusion baseline) on the paper's
    Figure 9 scenario."""

    def run():
        out = {}
        for name in POLICY_NAMES:
            spec = paper_cluster(fixed_slow_traces(20, [9]))
            out[name] = simulate(spec, make_policy(name), 600).total_time
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{k:>13}: {v:.1f}s" for k, v in sorted(out.items(), key=lambda kv: kv[1])]
    save_report("policies_all", "\n".join(lines))
    for k, v in out.items():
        benchmark.extra_info[k] = round(v, 1)
    assert out["filtered"] == min(out.values())
    assert out["filtered"] < out["diffusion"] < out["no-remap"]


def test_bench_ext_adaptation(benchmark, save_report):
    report = benchmark.pedantic(
        lambda: ext_adaptation.run(phases=600), rounds=1, iterations=1
    )
    save_report("ext_adaptation", str(report))
    data = report.data["schemes"]
    benchmark.extra_info["filtered_reaction_phases"] = data["filtered"][
        "reaction_phases"
    ]
    assert data["filtered"]["total"] < data["no-remap"]["total"]
