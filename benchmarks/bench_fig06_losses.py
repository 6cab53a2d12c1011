"""Figure 6: the nature of losses.

(a) Burstiness: P(losing packet i+k | packet i lost) starts far above
    the unconditional loss probability at small k and decays toward it.
(b) Path dependence: after a loss from BS A, A's next-packet reception
    collapses while BS B's barely moves — the property that makes
    macrodiversity effective.
"""

from conftest import print_table


def test_fig06_loss_structure(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    curve, overall, cond = (results["burst_curve"], results["overall_loss"],
                            results["two_bs"])

    print_table(
        "Figure 6(a): P(loss i+k | loss i), 10 ms probes",
        [(f"k={k}", v) for k, v in curve.items()]
        + [("unconditional", overall)],
    )
    print_table(
        "Figure 6(b): two-BS reception probabilities, 20 ms packets",
        [(k, v) for k, v in cond.items()],
    )
    save_results("fig06_losses", figure.payload(results))

    # (a) Losses are bursty and the excess decays with lag.
    assert curve[1] > 1.3 * overall
    assert curve[1] > curve[2000] * 1.1
    assert abs(curve[2000] - overall) < 0.25

    # (b) Self-conditioning collapses; cross-conditioning barely moves.
    self_drop = cond["P(A)"] - cond["P(A+1|!A)"]
    cross_drop = abs(cond["P(B)"] - cond["P(B+1|!A)"])
    assert self_drop > 0.15
    assert cross_drop < 0.15
    assert cond["P(B+1|!B)"] < cond["P(B)"]
