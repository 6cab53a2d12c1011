"""The Section 3 handoff study, end to end.

Generates VanLAN broadcast-probe traces (every node beacons 500-byte
packets at 10 Hz), replays all six handoff policies over them, and
prints both aggregate delivery and uninterrupted-session metrics —
the measurement study that motivates ViFi.

Run:
    python examples/policy_comparison.py [--seconds N]

``--seconds`` truncates the generated trips (trace generation and
replay are both linear in the trip length); the test suite smoke-runs
every example with a tiny cap.
"""

import argparse

from repro.apps.sessions import (
    session_lengths,
    time_weighted_median_session,
)
from repro.experiments.study import policy_factories
from repro.handoff.evaluator import evaluate_policy
from repro.testbeds.vanlan import VanLanTestbed

TRIPS = (0, 1)


def main(seconds=None):
    testbed = VanLanTestbed(seed=3)
    print("Generating probe traces (two evaluation trips plus history "
          "training)...")
    training = [testbed.generate_probe_trace(8000 + i,
                                             max_seconds=seconds)
                for i in range(4)]
    traces = [testbed.generate_probe_trace(t, max_seconds=seconds)
              for t in TRIPS]

    print(f"\n{'policy':<10s} {'packets':>9s} {'median session':>15s} "
          f"{'handoffs':>9s}")
    for name, factory in policy_factories().items():
        packets = 0
        handoffs = 0
        lengths = []
        for trace in traces:
            policy = factory(training if name == "History" else None)
            outcome = evaluate_policy(trace, policy)
            packets += outcome.packets_delivered
            handoffs += outcome.handoff_count
            adequate = outcome.adequate_windows()
            lengths.extend(session_lengths(adequate))
        median = time_weighted_median_session(lengths)
        print(f"{name:<10s} {packets:>9d} {median:>13.0f} s "
              f"{handoffs:>9d}")

    print(
        "\nReading: aggregate delivery differs modestly across"
        "\npolicies (Figure 2), but the *sessions* differ hugely"
        "\n(Figure 3d) — the paper's case for basestation diversity."
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=None,
                        help="truncate the generated trips")
    main(seconds=parser.parse_args().seconds)
