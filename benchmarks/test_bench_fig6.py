"""Figure 6 benchmark: density profiles near the hydrophobic wall.

Runs the scaled 3-D water/air forced/control pair (the full-resolution
paper run is documented in DESIGN.md).  Nothing is memoized: the Figure 7
benchmark runs the same pair again.
"""

from repro.experiments import fig6_density


def test_bench_fig6_density_profiles(benchmark, save_report):
    report = benchmark.pedantic(
        lambda: fig6_density.run(fast=False), rounds=1, iterations=1
    )
    save_report("fig6", str(report))

    depletion = report.data["water_depletion_ratio"]
    enrichment = report.data["air_enrichment_ratio"]
    benchmark.extra_info["water_wall_over_bulk"] = round(depletion, 3)
    benchmark.extra_info["air_wall_over_bulk"] = round(enrichment, 3)
    benchmark.extra_info["paper"] = "water depleted (~0.5-0.7), air enriched"
    assert depletion < 0.8
    assert enrichment > 1.5
