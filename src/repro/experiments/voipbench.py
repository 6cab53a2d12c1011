"""VoIP experiments: Figure 11 (VanLAN and DieselNet) and the Section
5.1 unicast aside.

Like the TCP figures, the ``(variant, trip)`` / ``(variant, day)``
grids fan out over :func:`~repro.experiments.common.run_trips`; the
task-order merge keeps pooled results identical to the serial loops
for any worker count.
"""

import statistics

from repro.apps.voip import VoipStream
from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    dieselnet_protocol,
    init_worker_state,
    memoized_beacon_log,
    run_protocol_app,
    run_trips,
    vanlan_protocol,
    worker_state,
)
from repro.sim.rng import RngRegistry

__all__ = ["unicast_ablation", "voip_dieselnet", "voip_vanlan"]


def _voip_cell(sim, duration):
    stream = run_protocol_app(sim, duration, VoipStream)
    return {
        "sessions": stream.session_lengths(),
        "mos": [m for m, _, _ in stream.window_quality()],
        "data_tx": sim.medium.transmissions(kind="data"),
    }


def _voip_vanlan_task(task):
    name, trip = task
    testbed, variants, seed = worker_state()
    sim, duration = vanlan_protocol(testbed, trip, config=variants[name],
                                    seed=seed + trip)
    return _voip_cell(sim, duration)


def _voip_dieselnet_task(task):
    name, day = task
    testbed, variants, seed, n_tours = worker_state()
    log = memoized_beacon_log(testbed, day, n_tours=n_tours)
    rngs = RngRegistry(seed).spawn("voip-dn", name, day)
    sim, duration = dieselnet_protocol(log, rngs, config=variants[name],
                                       seed=seed + day)
    return _voip_cell(sim, duration)


def _sweep(task, variants, units, initargs, workers, store):
    """Run the ``(variant, unit)`` grid; variant -> its cells in order."""
    units = list(units)
    per_task = iter(run_trips(
        task, [(name, unit) for name in variants for unit in units],
        workers=workers, store=store,
        initializer=init_worker_state, initargs=initargs,
    ))
    return {name: [next(per_task) for _ in units] for name in variants}


def _summarize(cells):
    sessions = [s for cell in cells for s in cell["sessions"]]
    mos_values = [m for cell in cells for m in cell["mos"]]
    return {
        "median_session_s": statistics.median(sessions) if sessions
        else 0.0,
        "sessions": len(sessions),
        "mean_mos": (sum(mos_values) / len(mos_values)
                     if mos_values else 1.0),
    }


def voip_vanlan(testbed, trips, variants=None, seed=0, workers=None,
                store=None):
    """Figure 11(a): median uninterrupted VoIP session on VanLAN.

    Args:
        workers: process count for the (variant, trip) fan-out;
            ``None`` uses the host's available cores, results are
            identical for any count.

    Returns:
        dict name -> {"median_session_s", "sessions", "mean_mos"}.
    """
    if variants is None:
        base = ViFiConfig()
        variants = {"BRR": base.brr_variant(), "ViFi": base}
    cells = _sweep(_voip_vanlan_task, variants, trips,
                   (testbed, variants, seed), workers, store)
    return {name: _summarize(c) for name, c in cells.items()}


def voip_dieselnet(testbed, days=(0,), variants=None, seed=0, n_tours=1,
                   workers=None, store=None):
    """Figure 11(b,c): VoIP sessions on DieselNet (trace-driven)."""
    if variants is None:
        base = ViFiConfig()
        variants = {"BRR": base.brr_variant(), "ViFi": base}
    cells = _sweep(_voip_dieselnet_task, variants, days,
                   (testbed, variants, seed, n_tours), workers, store)
    return {name: _summarize(c) for name, c in cells.items()}


def unicast_ablation(testbed, trips, seed=0):
    """Section 5.1 aside: BRR's VoIP over broadcast vs 802.11 unicast.

    Runs :func:`voip_vanlan`'s ``(variant, trip)`` task for BRR with
    broadcast frames and with unicast ones (MAC retries and binary
    exponential backoff).

    Returns:
        dict variant -> {"median_session_s", "mean_mos", "data_tx"},
        where ``data_tx`` counts data frames of both directions over
        all trips.
    """
    base = ViFiConfig()
    variants = {"BRR broadcast": base.brr_variant(),
                "BRR unicast": base.brr_unicast_variant()}
    cells = _sweep(_voip_vanlan_task, variants, trips,
                   (testbed, variants, seed), workers=None, store=None)
    out = {}
    for name, variant_cells in cells.items():
        summary = _summarize(variant_cells)
        out[name] = {
            "median_session_s": summary["median_session_s"],
            "mean_mos": summary["mean_mos"],
            "data_tx": sum(cell["data_tx"] for cell in variant_cells),
        }
    return out
