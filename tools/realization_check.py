#!/usr/bin/env python
"""Print the realization checks and the bench unit digests, one per line.

Usage::

    python tools/realization_check.py

Run it in two trees (for instance a clone of the parent commit and the
change) and ``diff`` the outputs.  The first line is Table 2's
``formulation_comparison`` over DieselNet channel 1, day 0, as JSON:
the benchmark exercises only the ``vifi`` strategy and BRR, so a
change to the relay formulations or the reception estimator can move
Table 2 unseen.  Then come six lines of the Section 5.1 unicast
ablation, one per protocol seed 13-18: data frames, deliveries, mean
MoS, median session (s) and events of BRR-unicast VoIP over
``VanLanTestbed(seed=5)`` trips 0-1, trip k at seed ``seed + k`` (the
registry's ``ablation_unicast`` entry runs seed 13).  The benchmark
sends only broadcast frames, so these lines are what covers the
medium's unicast contention path.  Then come two lines on
``VanLanTestbed(seed=42).generate_probe_trace(0, max_seconds=60)``:
probe traces draw their losses through
:func:`~repro.net.channel.steered_losses`, a path no protocol run
takes, and they feed the trace-driven figures and the handoff study.
``probe-trace-outcomes`` is the sha256 of its ``up``, ``down`` and
``positions`` arrays, and ``probe-trace-rssi`` of its ``rssi`` array,
which records the radio model's float values and so can move in its
last bits while every outcome holds.  ``beacon-log`` is the sha256 of
the ``heard`` counts of
``DieselNetTestbed(channel=1, seed=2).generate_beacon_log(0)``, the
log Table 2, Figure 10 and Figure 11's channel 1 read.  Then come
eight lines, each a label (``fig02`` ... ``fig08``, ``table1``,
``fig12``) and the sha256 of the JSON text of a registry payload: of
Figures 2, 3, 4, 6, 7 and 8, Table 1 and Figure 12.  Figure 6 is the
other caller of ``steered_losses``; Figures 2-4, 7 and 8 compute the
session metric (:mod:`repro.apps.sessions`), which no benchmark unit
reads, over the handoff policies' replays and the link-layer runs; and
Table 1 and Figure 12 read the per-transmission ledger
(:class:`~repro.core.stats.ViFiStats`) through rows A1-C4 in both
directions and the PerfectRelay tallies, where the benchmark digests
hash only events, transmissions and deliveries.

After these eighteen lines comes one ``bench <workload> <unit>
<digest>`` line per unit of the benchmark's workloads
(``bench/workloads.py``) at protocol seed 0, computed in this process
with the Figure 9 sweep run serially (its digests do not depend on the
pool size): 25 lines in all.  So one ``diff`` of this script's output
covers every bit-identity check.

The run takes 70-130 s on a 2-vCPU host and uses no result store.
"""

import argparse
import hashlib
import json
import pathlib
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "bench"))

from repro.apps.voip import VoipStream  # noqa: E402
from repro.apps.workload import FlowRouter  # noqa: E402
from repro.core.protocol import ViFiConfig  # noqa: E402
from repro.experiments.common import WARMUP_S, vanlan_protocol  # noqa: E402
from repro.experiments.coordination import formulation_comparison  # noqa: E402
from repro.figures import FIGURES, payload_text  # noqa: E402
from repro.testbeds.dieselnet import DieselNetTestbed  # noqa: E402
from repro.testbeds.vanlan import VanLanTestbed  # noqa: E402
from workloads import WORKLOADS, run_workload  # noqa: E402

#: Protocol seeds of the unicast ablation lines.
UNICAST_SEEDS = range(13, 19)
#: Registry entries whose payload hashes make the figure lines, each
#: labelled with its name up to the first underscore.
FIGURE_LINES = ("fig02_aggregate", "fig03_sessions", "fig04_definitions",
                "fig06_losses", "fig07_vifi_link", "fig08_path",
                "table1_coordination", "fig12_efficiency")


def table2_line():
    """Table 2's formulation comparison as one sorted JSON line."""
    table = formulation_comparison(DieselNetTestbed(channel=1, seed=2),
                                   days=(0,), seed=1, store=False)
    return json.dumps(table, sort_keys=True)


def unicast_line(seed):
    """One seed of BRR-unicast VoIP over VanLAN trips 0-1."""
    testbed = VanLanTestbed(seed=5)
    frames = deliveries = events = 0
    mos, sessions = [], []
    for trip in (0, 1):
        sim, duration = vanlan_protocol(
            testbed, trip, config=ViFiConfig().brr_unicast_variant(),
            seed=seed + trip)
        stream = VoipStream(sim, FlowRouter(sim))
        stream.start(WARMUP_S)
        stream.stop(duration - 2.0)
        sim.run(until=duration)
        frames += sim.medium.transmissions(kind="data")
        deliveries += len(stream.up_deliveries) \
            + len(stream.down_deliveries)
        events += sim.sim.events_processed
        mos += [m for m, _, _ in stream.window_quality()]
        sessions += stream.session_lengths()
    return " ".join(str(v) for v in (
        seed, frames, deliveries, round(sum(mos) / len(mos), 3),
        statistics.median(sessions), events))


def probe_trace_lines():
    """The sha256 of a 60 s VanLAN probe trace's outcomes, then of its
    RSSI."""
    trace = VanLanTestbed(seed=42).generate_probe_trace(0, max_seconds=60)
    outcomes = trace.up.tobytes() + trace.down.tobytes() \
        + trace.positions.tobytes()
    return ["probe-trace-outcomes " + hashlib.sha256(outcomes).hexdigest(),
            "probe-trace-rssi "
            + hashlib.sha256(trace.rssi.tobytes()).hexdigest()]


def beacon_log_line():
    """The sha256 of Table 2's DieselNet beacon log."""
    log = DieselNetTestbed(channel=1, seed=2).generate_beacon_log(0)
    return "beacon-log " + hashlib.sha256(log.heard.tobytes()).hexdigest()


def figure_lines():
    """One ``<label> <sha256>`` line per :data:`FIGURE_LINES` entry,
    over its payload as ``results/`` holds it."""
    for name in FIGURE_LINES:
        figure = FIGURES[name]
        text = payload_text(figure.payload(figure.run()))
        yield (name.partition("_")[0] + " "
               + hashlib.sha256(text.encode()).hexdigest())


def bench_lines():
    """One ``bench <workload> <unit> <digest>`` line per benchmark unit
    at protocol seed 0."""
    return [f"bench {name} {unit['unit']} {unit['digest']}"
            for name in WORKLOADS
            for unit in run_workload(name, 0, serial=True)["units"]]


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]) \
        .parse_args(argv)
    print(table2_line(), flush=True)
    for seed in UNICAST_SEEDS:
        print(unicast_line(seed), flush=True)
    for line in probe_trace_lines():
        print(line, flush=True)
    print(beacon_log_line(), flush=True)
    for line in figure_lines():
        print(line, flush=True)
    for line in bench_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
