"""Section 5.5.2: where the relaying formulation struggles.

Paper finding: with many auxiliary BSes, or with auxiliaries symmetric
(equidistant from source and destination), the *expected* number of
relays stays one but its *variance* grows, inflating both false
positives and false negatives.  Breaking the symmetry calms the spread.
"""

from conftest import print_table


def test_ablation_relay_spread(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    rows = [
        (name, mean, var)
        for name, (mean, var, _) in results.items()
    ]
    print_table("Section 5.5.2: relays per packet", rows,
                headers=["mean", "variance"])
    save_results("ablation_limits", figure.payload(results))

    # Variance grows with the auxiliary population under symmetry.
    assert results["symmetric n=16"][1] > results["symmetric n=3"][1]
    # Breaking symmetry reduces the spread at equal population.
    assert results["asymmetric n=16"][1] < results["symmetric n=16"][1]
