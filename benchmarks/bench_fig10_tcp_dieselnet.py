"""Figure 10: TCP transfers per second on DieselNet (trace-driven).

Paper shape: ViFi sustains more completed transfers per second than
BRR on both profiled channels.
"""

from conftest import print_table


def test_fig10_tcp_dieselnet(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    rows = []
    for channel, by_proto in results.items():
        for proto, r in by_proto.items():
            rows.append((f"Ch{channel} {proto}", r["per_second"],
                         float(r["completed"]), float(r["aborted"])))
    print_table("Figure 10: TCP on DieselNet", rows,
                headers=["xfer/s", "completed", "aborted"])
    save_results("fig10_tcp_dieselnet", figure.payload(results))

    for channel in (1, 6):
        assert results[channel]["ViFi"]["per_second"] > \
            results[channel]["BRR"]["per_second"]
