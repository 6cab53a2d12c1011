"""Table 1: detailed statistics on the behaviour of ViFi.

Paper regime (VanLAN, TCP workload): several auxiliaries designated
(A1 = 5); more auxiliaries overhear downstream transmissions than
upstream ones (BS-BS rooftop links beat vehicle-BS links); false
positives are bounded (B2 = 25% / 33%) thanks to probabilistic
relaying plus ack suppression; false negatives among overheard failed
transmissions are moderate; relayed upstream packets always arrive
(C4 = 100%, the backplane is wired).
"""

from conftest import print_table


def test_table1_coordination(benchmark, save_results, figure):
    reports = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    up = reports["upstream"]
    down = reports["downstream"]
    rows = [
        (label_up, value_up, value_down)
        for (label_up, value_up), (_, value_down)
        in zip(up.rows(), down.rows())
    ]
    print_table("Table 1: ViFi coordination statistics (VanLAN TCP)",
                rows, headers=["upstream", "downstream"])
    save_results("table1_coordination", figure.payload(reports))

    # Designated auxiliaries present in both directions (A1).
    assert up.median_aux >= 2 and down.median_aux >= 2
    # Downstream overhearing beats upstream (A2): BS-BS links are
    # stronger than vehicle-BS links.
    assert down.mean_aux_heard > up.mean_aux_heard
    # Coordination bounds false positives well below the no-
    # coordination baseline (which would equal A2).
    assert up.false_positive_rate < up.mean_aux_heard
    assert down.false_positive_rate < down.mean_aux_heard
    # Failed downstream transmissions are almost always overheard (C2).
    assert down.failed_overheard_rate > 0.8
    # Upstream relays ride the wired backplane: they always arrive.
    assert up.relay_delivery_rate == 1.0
    # Downstream relays traverse the radio: some are lost.
    assert down.relay_delivery_rate < 1.0
