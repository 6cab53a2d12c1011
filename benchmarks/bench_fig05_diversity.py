"""Figure 5: CDF of the number of BSes heard per one-second interval.

Paper shape: vehicles are commonly within range of two or more BSes on
the same channel in all three environments; the denser Channel 6 of
DieselNet dominates Channel 1; the >=50%-of-beacons notion (Fig. 5b)
shifts every curve left.
"""

from conftest import print_table

from repro.analysis.diversity import visible_bs_stats as _stats


def test_fig05_visible_bs_cdf(benchmark, save_results, figure):
    hists = benchmark.pedantic(figure.run, rounds=1, iterations=1)

    rows = [(f"{env} ({notion} beacon)", *_stats(hist))
            for (env, notion), hist in hists.items()]
    print_table("Figure 5: visible BSes per second", rows,
                headers=["P(0)", "median", "P(>=2)"])
    save_results("fig05_diversity", figure.payload(hists))

    # Diversity premise: >=2 BSes most of the time under the any-beacon
    # notion, in every environment.
    for env in ("VanLAN", "DieselNet Ch1", "DieselNet Ch6"):
        _, med, p2 = _stats(hists[(env, "any")])
        assert med >= 2
        assert p2 > 0.5
    # Channel 6 is denser than Channel 1.
    _, med1, _ = _stats(hists[("DieselNet Ch1", "any")])
    _, med6, _ = _stats(hists[("DieselNet Ch6", "any")])
    assert med6 >= med1
    # The 50%-beacons notion is strictly harsher.
    for env in ("VanLAN", "DieselNet Ch1", "DieselNet Ch6"):
        p0_any, _, _ = _stats(hists[(env, "any")])
        p0_half, _, _ = _stats(hists[(env, "half")])
        assert p0_half >= p0_any
