"""Figure 7 benchmark: normalized velocity profiles and apparent slip.

Runs the same scaled 3-D forced/control pair as the Figure 6 benchmark;
nothing is memoized, so each benchmark pays for its own pair.
"""

from repro.experiments import fig7_velocity


def test_bench_fig7_velocity_profiles(benchmark, save_report):
    report = benchmark.pedantic(
        lambda: fig7_velocity.run(fast=False), rounds=1, iterations=1
    )
    save_report("fig7", str(report))

    slip_forced = report.data["slip_forced"]
    slip_control = report.data["slip_control"]
    benchmark.extra_info["slip_with_forces_pct"] = round(100 * slip_forced, 2)
    benchmark.extra_info["slip_without_forces_pct"] = round(100 * slip_control, 2)
    benchmark.extra_info["paper"] = "~10% slip with forces, ~0 without"
    # The hydrophobic force must produce a clear additional slip.
    assert slip_forced > slip_control + 0.02
