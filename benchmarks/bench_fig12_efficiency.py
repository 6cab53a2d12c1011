"""Figure 12: efficiency of medium usage.

Paper shape: upstream, ViFi is markedly more efficient than BRR
(upstream relays ride the backplane and burst-avoiding relays save
retransmissions) and close to the PerfectRelay oracle; downstream, the
three protocols are comparable, with BRR allowed a slight edge since
ViFi's relayed copies air on the vehicle-BS channel.
"""

from conftest import print_table


def test_fig12_efficiency(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    rows = []
    for direction in ("upstream", "downstream"):
        for proto in ("BRR", "ViFi", "PerfectRelay"):
            rows.append((f"{direction} {proto}",
                         results[direction][proto]))
    print_table("Figure 12: packets delivered per data transmission",
                rows, headers=["efficiency"])
    save_results("fig12_efficiency", figure.payload(results))

    up, down = results["upstream"], results["downstream"]
    # Upstream: ViFi > BRR, and PerfectRelay bounds ViFi from above.
    assert up["ViFi"] > up["BRR"]
    assert up["PerfectRelay"] >= up["ViFi"]
    # Downstream: BRR and PerfectRelay sit together; ViFi pays a relay
    # tax on the air.  In the paper that tax is small (BRR only
    # "slightly better"); our reproduction's false-positive relays are
    # costlier (downstream B2 in results/table1_coordination.json, 33%
    # in the paper), so the bound is looser, but ViFi must stay within
    # 2x of the others and the ordering must hold.
    assert down["BRR"] >= down["ViFi"]
    assert down["PerfectRelay"] >= down["ViFi"]
    assert max(down.values()) <= min(down.values()) * 2.0
