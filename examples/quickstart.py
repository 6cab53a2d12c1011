"""Quickstart: ViFi vs hard handoff on a synthetic VanLAN trip.

Builds the VanLAN testbed, runs the same shuttle trip twice — once
under ViFi and once under the BRR hard-handoff comparator — with the
paper's probe workload (500-byte packets every 100 ms in both
directions), and reports delivery and uninterrupted-session metrics.

Run:
    python examples/quickstart.py [--seconds N]

``--seconds`` caps the simulated trip length (the full trip is about
3.5 minutes); the test suite smoke-runs every example with a tiny cap.
"""

import argparse

from repro.apps.sessions import (
    ADEQUATE_RATIO,
    session_lengths,
    time_weighted_median_session,
)
from repro.core.protocol import ViFiConfig
from repro.experiments.common import run_protocol_cbr, vanlan_protocol
from repro.testbeds.vanlan import VanLanTestbed


def main(seconds=None):
    testbed = VanLanTestbed(seed=5)
    base = ViFiConfig()
    print("Running one VanLAN shuttle trip under two protocols...\n")
    print(f"{'protocol':<10s} {'delivery':>9s} {'median session':>15s} "
          f"{'anchor changes':>15s}")
    for name, config in (("ViFi", base), ("BRR", base.brr_variant())):
        sim, duration = vanlan_protocol(
            testbed, trip=0, config=config, seed=11,
            prefill=True if seconds is None else float(seconds),
        )
        if seconds is not None:
            duration = min(duration, float(seconds))
        cbr = run_protocol_cbr(sim, duration, deadline_s=0.1)
        ratios = cbr.window_reception_ratio(deadline_s=0.1)
        lengths = session_lengths(ratios >= ADEQUATE_RATIO)
        median = time_weighted_median_session(lengths)
        print(f"{name:<10s} {cbr.delivery_rate():>8.1%} "
              f"{median:>13.0f} s {sim.stats.anchor_changes:>15d}")
    print(
        "\nViFi masks disruptions by letting auxiliary basestations\n"
        "relay packets the anchor missed.  `python -m repro list` names\n"
        "the paper artifacts the CLI regenerates; each figure also has\n"
        "a benchmark that regenerates and checks it, for example\n"
        "`pytest benchmarks/bench_fig07_vifi_link.py`."
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=None,
                        help="cap the simulated trip length")
    main(seconds=parser.parse_args().seconds)
