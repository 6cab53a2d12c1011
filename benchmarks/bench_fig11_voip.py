"""Figure 11: median uninterrupted VoIP session lengths.

Paper shape: ViFi's median disruption-free session is much longer than
BRR's — over 100% longer on VanLAN and over 50% / 65% longer on
DieselNet channels 1 / 6 — and the mean 3-second MoS is higher too
(3.4 vs 3.0 on VanLAN).
"""

from conftest import print_table


def test_fig11_voip_sessions(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    rows = []
    for env, by_proto in results.items():
        for proto, r in by_proto.items():
            rows.append((f"{env} {proto}", r["median_session_s"],
                         r["mean_mos"]))
    print_table("Figure 11: VoIP sessions", rows,
                headers=["median (s)", "mean MoS"])
    save_results("fig11_voip", figure.payload(results))

    for env in results:
        vifi = results[env]["ViFi"]
        brr = results[env]["BRR"]
        # Paper: gains of >100% (VanLAN) and >50% / >65% (DieselNet).
        # At this reduced scale trip-level variance is large, so the
        # bound is a conservative 30% with the call quality required to
        # improve too.
        assert vifi["median_session_s"] >= 1.3 * brr["median_session_s"]
        assert vifi["mean_mos"] > brr["mean_mos"]
