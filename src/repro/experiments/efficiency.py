"""Medium-usage efficiency: Figure 12.

"We measure efficiency as the number of application packets delivered
per transmission, in the channel between the vehicle and the BSes."
BRR and ViFi are measured directly; PerfectRelay is estimated from the
ViFi run's packet-level logs (Section 5.4).

The ``(variant, trip)`` runs fan out over
:func:`~repro.experiments.common.run_trips`; results are identical for
any worker count.
"""

from collections import Counter

from repro.apps.tcp import TcpWorkload
from repro.core.perfect import perfect_relay_efficiency
from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    init_worker_state,
    run_protocol_app,
    run_trips,
    vanlan_protocol,
    worker_state,
)
from repro.net.packet import Direction

__all__ = ["efficiency_comparison"]

_DIRECTIONS = (("upstream", Direction.UPSTREAM),
               ("downstream", Direction.DOWNSTREAM))


def _efficiency_task(task):
    """One (variant, trip) TCP run: (protocol, direction) -> tally.

    A tally is ``(packets delivered, data transmissions)``; the ViFi
    run also yields PerfectRelay's tallies from its logs.
    """
    name, trip = task
    testbed, variants, seed = worker_state()
    sim, duration = vanlan_protocol(testbed, trip, config=variants[name],
                                    seed=seed + trip)
    run_protocol_app(sim, duration, TcpWorkload)
    tallies = {}
    for key, direction in _DIRECTIONS:
        delivered = sum(
            1 for p in sim.stats.packet_records.values()
            if p.direction == direction and p.delivered
        )
        tallies[(name, key)] = (delivered, sim.wireless_data_tx(direction))
        if name == "ViFi":
            _, pr_delivered, pr_tx = perfect_relay_efficiency(
                sim.stats, direction
            )
            tallies[("PerfectRelay", key)] = (pr_delivered, pr_tx)
    return tallies


def efficiency_comparison(testbed, trips, seed=0):
    """Figure 12: efficiency of BRR, ViFi and PerfectRelay, per direction.

    The workload is the TCP experiment of Section 5.3.1, as in the
    paper.  PerfectRelay is derived from the ViFi logs.

    Returns:
        dict direction ("upstream"/"downstream") -> dict protocol ->
        efficiency.
    """
    base = ViFiConfig()
    variants = {"BRR": base.brr_variant(), "ViFi": base}
    trips = list(trips)
    tasks = [(name, trip) for name in variants for trip in trips]
    delivered, tx = Counter(), Counter()
    for tallies in run_trips(_efficiency_task, tasks,
                             initializer=init_worker_state,
                             initargs=(testbed, variants, seed)):
        for cell, (cell_delivered, cell_tx) in tallies.items():
            delivered[cell] += cell_delivered
            tx[cell] += cell_tx
    return {
        key: {name: delivered[(name, key)] / tx[(name, key)]
              if tx[(name, key)] else 0.0
              for name in ("BRR", "ViFi", "PerfectRelay")}
        for key, _ in _DIRECTIONS
    }
