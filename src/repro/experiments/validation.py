"""Methodology validation (Section 5.1).

"We validate our trace-driven simulation method by collecting the same
measurements from VanLAN and comparing its results to the deployment
... We find that the simulation results match the deployment results.
For instance, the VoIP session lengths in the simulations are within
five seconds of the session lengths observed for the deployed
prototype."

Here: run a VanLAN trip twice — once over the live radio model (the
"deployment") and once trace-driven from the beacon log of the same
trip — and compare VoIP session medians.  The ``(mode, trip)`` runs
fan out over :func:`~repro.experiments.common.run_trips`; results are
identical for any worker count.
"""

import statistics

from repro.apps.voip import VoipStream
from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    dieselnet_protocol,
    init_worker_state,
    run_protocol_app,
    run_trips,
    vanlan_protocol,
    worker_state,
)
from repro.sim.rng import RngRegistry

__all__ = ["validate_trace_methodology"]


def _validation_task(task):
    """One (mode, trip) ViFi VoIP run: its median session (s)."""
    mode, trip = task
    testbed, seed = worker_state()
    config = ViFiConfig()
    if mode == "deployment":
        sim, duration = vanlan_protocol(testbed, trip, config=config,
                                        seed=seed + trip)
    else:
        log = testbed.beacon_log_from_trace(
            testbed.generate_probe_trace(trip))
        rngs = RngRegistry(seed).spawn("validation", trip)
        sim, duration = dieselnet_protocol(log, rngs, config=config,
                                           seed=seed + trip)
    sessions = run_protocol_app(sim, duration, VoipStream).session_lengths()
    return statistics.median(sessions) if sessions else 0.0


def validate_trace_methodology(testbed, trips, seed=0):
    """Deployment vs trace-driven VoIP session medians per trip.

    Returns:
        List of dicts with ``trip``, ``deployment_s``, ``trace_s`` and
        ``gap_s`` entries.
    """
    trips = list(trips)
    medians = iter(run_trips(
        _validation_task, [(mode, trip) for trip in trips
                           for mode in ("deployment", "trace")],
        initializer=init_worker_state, initargs=(testbed, seed),
    ))
    rows = []
    for trip in trips:
        deployment_median, trace_median = next(medians), next(medians)
        rows.append({
            "trip": trip,
            "deployment_s": deployment_median,
            "trace_s": trace_median,
            "gap_s": abs(deployment_median - trace_median),
        })
    return rows
