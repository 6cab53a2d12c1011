"""Section 5.1 aside: broadcast framework vs standard 802.11 unicast.

"We omit experiments that show that BRR performs worse with unicast
transmissions.  The poor performance is because of backoffs in response
to losses.  In VoIP experiments, for instance, the length of
disruption-free calls were 25% shorter."

We run BRR both ways over the same trips.  Unicast adds MAC retries
(which mostly die inside the same loss burst — the Section 4.3
observation) and exponential backoff (which throttles the sender for
losses that are not collisions).
"""

from conftest import print_table


def test_ablation_unicast_backoff(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    rows = [
        (name, r["median_session_s"], r["mean_mos"], float(r["data_tx"]))
        for name, r in results.items()
    ]
    print_table("Section 5.1 aside: BRR broadcast vs unicast (VoIP)",
                rows, headers=["median (s)", "mean MoS", "data tx"])
    save_results("ablation_unicast", figure.payload(results))

    broadcast = results["BRR broadcast"]
    unicast = results["BRR unicast"]
    # MAC retries burn extra airtime...
    assert unicast["data_tx"] > broadcast["data_tx"]
    # ...without improving the interactive experience: sessions are no
    # longer than broadcast's (the paper: ~25% shorter).
    assert unicast["median_session_s"] <= \
        broadcast["median_session_s"] * 1.10
