"""Table 2: ViFi's relaying formulation vs the three ablations.

Paper shape (DieselNet Ch. 1, downstream): false negatives are roughly
similar across formulations while false positives separate them — the
expected-delivery formulation (NotG3) over-relays dramatically (157%
in the paper), and ignoring destination connectivity (NotG2) wastes
relays relative to ViFi.  One honest divergence from the paper: with
our sparser synthetic DieselNet links, NotG1 (ignore other
auxiliaries) under-relays — trading a low false-positive rate for by
far the worst false negatives — whereas in the paper's denser
environment it over-relayed.
"""

from conftest import print_table

from repro.experiments.coordination import formulation_comparison
from repro.testbeds.dieselnet import DieselNetTestbed


def run_experiment():
    testbed = DieselNetTestbed(channel=1, seed=2)
    return formulation_comparison(testbed, days=(0,), seed=1)


def test_table2_formulations(benchmark, save_results):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        (name, r["false_positives"], r["false_negatives"])
        for name, r in results.items()
    ]
    print_table("Table 2: downstream coordination, DieselNet Ch. 1",
                rows, headers=["false pos", "false neg"])
    save_results("table2_formulations", results)

    vifi = results["vifi"]
    # NotG3 over-relays worst of all (the paper's 157%).
    assert results["not-g3"]["false_positives"] > \
        1.3 * vifi["false_positives"]
    # NotG2 wastes relays relative to ViFi at similar false negatives.
    assert results["not-g2"]["false_positives"] > \
        vifi["false_positives"]
    assert abs(results["not-g2"]["false_negatives"]
               - vifi["false_negatives"]) < 0.25
    # NotG1 pays for its formulation on one side of the trade-off: it
    # must be strictly worse than ViFi on false negatives or false
    # positives (in our environment: false negatives).
    assert (results["not-g1"]["false_negatives"]
            > 1.5 * vifi["false_negatives"]) or \
           (results["not-g1"]["false_positives"]
            > 1.5 * vifi["false_positives"])
    # ViFi keeps both error kinds bounded.
    assert vifi["false_negatives"] < 0.35
