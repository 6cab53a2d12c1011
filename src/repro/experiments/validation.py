"""Methodology validation (Section 5.1).

"We validate our trace-driven simulation method by collecting the same
measurements from VanLAN and comparing its results to the deployment
... We find that the simulation results match the deployment results.
For instance, the VoIP session lengths in the simulations are within
five seconds of the session lengths observed for the deployed
prototype."

Here: compare, per VanLAN trip, ViFi's median VoIP session over the
live radio model (the "deployment") with one trace-driven from the
beacon log of the same trip.  The deployment runs are Figure 11's
VanLAN ViFi runs, so a result store computes them once for both.
"""

import statistics

from repro.apps.voip import VoipStream
from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    brr_vifi_variants,
    dieselnet_protocol,
    init_worker_state,
    require_complete,
    run_protocol_app,
    run_trips,
    worker_state,
)
from repro.experiments.voipbench import _voip_vanlan_task
from repro.sim.rng import RngRegistry

__all__ = ["validate_trace_methodology"]


def _median(sessions):
    return statistics.median(sessions) if sessions else 0.0


def _validation_task(trip):
    """One trace-driven ViFi VoIP run of a trip: its median session (s)."""
    testbed, seed = worker_state()
    log = testbed.beacon_log_from_trace(testbed.generate_probe_trace(trip))
    rngs = RngRegistry(seed).spawn("validation", trip)
    sim, duration = dieselnet_protocol(log, rngs, config=ViFiConfig(),
                                       seed=seed + trip)
    stream = run_protocol_app(sim, duration, VoipStream)
    return _median(stream.session_lengths())


def validate_trace_methodology(testbed, trips, seed=0):
    """Deployment vs trace-driven VoIP session medians per trip.

    Returns:
        List of dicts with ``trip``, ``deployment_s``, ``trace_s`` and
        ``gap_s`` entries.
    """
    trips = list(trips)
    deployment_tasks = [("ViFi", trip) for trip in trips]
    deployment = require_complete(run_trips(
        _voip_vanlan_task, deployment_tasks,
        initializer=init_worker_state,
        initargs=(testbed, brr_vifi_variants(), seed),
    ), deployment_tasks)
    trace = require_complete(run_trips(
        _validation_task, trips,
        initializer=init_worker_state, initargs=(testbed, seed),
    ), trips)
    rows = []
    for trip, cell, trace_median in zip(trips, deployment, trace):
        deployment_median = _median(cell["sessions"])
        rows.append({
            "trip": trip,
            "deployment_s": deployment_median,
            "trace_s": trace_median,
            "gap_s": abs(deployment_median - trace_median),
        })
    return rows
