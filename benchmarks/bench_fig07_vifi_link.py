"""Figure 7: ViFi's link-layer sessions vs the handoff policies.

Paper shape: ViFi's median uninterrupted session beats the ideal hard
handoff (BestBS) and approaches the ideal diversity oracle (AllBSes);
BRR trails far behind.  Link-layer retransmissions are disabled.
"""

from conftest import print_table


def test_fig07_link_layer_sessions(benchmark, save_results, figure):
    medians = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    order = ("BRR", "BestBS", "ViFi", "AllBSes")
    print_table(
        "Figure 7: median session length (interval=1s, ratio=50%)",
        [(name, medians[name]) for name in order],
        headers=["median (s)"],
    )
    save_results("fig07_vifi_link", figure.payload(medians))

    # ViFi beats the ideal hard handoff and sits below the oracle.
    assert medians["ViFi"] > medians["BestBS"]
    assert medians["ViFi"] > 2.0 * medians["BRR"]
    assert medians["ViFi"] <= medians["AllBSes"] * 1.05
