"""Figure 4: median session length vs the definition of adequacy.

Paper shape: with laxer definitions (longer averaging interval, lower
reception-ratio floor) all non-Sticky policies converge; as the
definition tightens, the multi-BS advantage grows; the strictest
settings are degenerate for everyone.
"""

from conftest import print_table


def test_fig04_definition_sweep(benchmark, save_results, figure):
    results = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    by_interval, by_ratio = results["by_interval"], results["by_ratio"]
    print_table(
        "Figure 4(a): median session vs interval (ratio=50%)",
        [(n, *by_interval[n]) for n in by_interval],
        headers=[f"{w:.0f}s" for w in results["intervals"]],
    )
    print_table(
        "Figure 4(b): median session vs reception ratio (interval=1s)",
        [(n, *by_ratio[n]) for n in by_ratio],
        headers=[f"{int(r * 100)}%" for r in results["ratios"]],
    )
    save_results("fig04_definitions", figure.payload(results))

    # Laxer interval definitions help every policy.
    for name in by_interval:
        assert by_interval[name][-1] >= by_interval[name][0]
    # The multi-BS advantage grows as the ratio requirement tightens
    # (compare the AllBSes/BRR gap at 10% vs 70%).
    def gap(r_idx):
        brr = max(by_ratio["BRR"][r_idx], 1e-9)
        return by_ratio["AllBSes"][r_idx] / brr
    assert gap(3) > gap(0)
    # Strictest setting is degenerate: everyone's sessions collapse.
    assert by_ratio["AllBSes"][-1] <= 0.5 * by_ratio["AllBSes"][2]
