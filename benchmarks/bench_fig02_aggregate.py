"""Figure 2: packets delivered per day vs number of basestations.

Paper shape: AllBSes > BestBS > {History, RSSI, BRR} > Sticky; every
non-Sticky policy within ~25-35% of AllBSes; delivery grows with BS
density and does not flatten.
"""

from conftest import print_table


def test_fig02_aggregate_performance(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    subset_sizes = list(results["AllBSes"])

    rows = []
    for policy, by_size in results.items():
        rows.append((policy, *(by_size[s][0] for s in subset_sizes)))
    print_table("Figure 2: packets/day (VanLAN)", rows,
                headers=[f"{s} BSes" for s in subset_sizes])
    save_results("fig02_aggregate", figure.payload(results))

    full = {policy: by_size[11][0] for policy, by_size in results.items()}
    # Ordering at full density.
    assert full["AllBSes"] > full["BestBS"] > full["Sticky"]
    assert full["BestBS"] >= full["BRR"] * 0.99
    assert full["BRR"] > full["Sticky"]
    # Density monotonicity for the oracle.
    series = [results["AllBSes"][s][0] for s in subset_sizes]
    assert series == sorted(series)
    # Practical single-BS policies stay in AllBSes' ballpark.
    assert full["BRR"] > 0.6 * full["AllBSes"]
