"""Figure 8: BRR vs ViFi behaviour along a path segment.

Paper shape: over like-for-like trips, BRR's path shows several
interruptions while ViFi's shows markedly fewer (one, in the paper's
example).  We report interruption counts and connected fractions for
the same trip under both protocols.
"""

from conftest import print_table


def test_fig08_path_behaviour(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    rows = [
        (name, float(r["interruptions"]), r["connected_fraction"])
        for name, r in results.items()
    ]
    print_table("Figure 8: one trip, adequate-connectivity runs", rows,
                headers=["interrupts", "connected"])
    save_results("fig08_path", figure.payload(results))

    assert results["ViFi"]["interruptions"] < \
        results["BRR"]["interruptions"]
    assert results["ViFi"]["connected_fraction"] > \
        results["BRR"]["connected_fraction"]
