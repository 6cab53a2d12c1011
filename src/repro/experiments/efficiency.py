"""Medium-usage efficiency: Figure 12.

"We measure efficiency as the number of application packets delivered
per transmission, in the channel between the vehicle and the BSes."
BRR and ViFi are measured directly; PerfectRelay is estimated from the
ViFi run's packet-level logs (Section 5.4).

The runs are Figure 9's BRR and ViFi runs, read from the cells of
:func:`~repro.experiments.tcpbench._tcp_vanlan_task`.
"""

from collections import Counter

from repro.experiments.common import (
    init_worker_state,
    require_complete,
    run_trips,
)
from repro.experiments.tcpbench import _tcp_vanlan_task, standard_tcp_variants

__all__ = ["efficiency_comparison"]


def efficiency_comparison(testbed, trips, seed=0):
    """Figure 12: efficiency of BRR, ViFi and PerfectRelay, per direction.

    The workload is the TCP experiment of Section 5.3.1, as in the
    paper.  PerfectRelay is derived from the ViFi logs.

    Returns:
        dict direction ("upstream"/"downstream") -> dict protocol ->
        efficiency.
    """
    trips = list(trips)
    tasks = [(name, trip) for name in ("BRR", "ViFi") for trip in trips]
    delivered, tx = Counter(), Counter()
    for cell in require_complete(run_trips(
        _tcp_vanlan_task, tasks, initializer=init_worker_state,
        initargs=(testbed, standard_tcp_variants(), seed),
    ), tasks):
        for direction, tallies in cell["efficiency"].items():
            for name, (cell_delivered, cell_tx) in tallies.items():
                delivered[direction, name] += cell_delivered
                tx[direction, name] += cell_tx
    return {
        direction: {name: delivered[direction, name] / tx[direction, name]
                    if tx[direction, name] else 0.0
                    for name in ("BRR", "ViFi", "PerfectRelay")}
        for direction in ("upstream", "downstream")
    }
