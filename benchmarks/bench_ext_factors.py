"""Extension: ViFi across environmental factors (companion TR).

The paper reports (via its technical report) that ViFi's advantage
holds across BS density and vehicle speed.  Expected shape: ViFi
delivers at least as much as BRR at every operating point, and the
advantage does not collapse at low density or high speed.
"""

from conftest import print_table


def test_ext_environmental_factors(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    by_density, by_speed = results["density"], results["speed"]
    print_table(
        "Extension: delivery vs BS density",
        [(f"{size} BSes", r["ViFi"], r["BRR"])
         for size, r in by_density.items()],
        headers=["ViFi", "BRR"],
    )
    print_table(
        "Extension: delivery vs vehicle speed",
        [(f"{speed:.0f} km/h", r["ViFi"], r["BRR"])
         for speed, r in by_speed.items()],
        headers=["ViFi", "BRR"],
    )
    save_results("ext_factors", figure.payload(results))

    for rates in list(by_density.values()) + list(by_speed.values()):
        assert rates["ViFi"] >= rates["BRR"] - 0.02
    # More BSes help ViFi (diversity grows).
    assert by_density[11]["ViFi"] >= by_density[3]["ViFi"] - 0.02