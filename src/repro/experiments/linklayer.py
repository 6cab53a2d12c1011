"""Link-layer session experiments: Figures 7 and 8.

ViFi and BRR run as live protocols over the VanLAN radio model with the
CBR probe workload and *link-layer retransmissions disabled*
("Since we focus on basic link-layer quality provided by each protocol,
link-layer retransmissions are disabled", Section 5.2); the oracle
curves (BestBS, AllBSes) come from the trace-driven study over matched
trips, as in the paper where Figure 7's oracle curves are carried over
from Figure 4.  Connectivity is adequate in a one-second window that
delivers at least half its probes.

The ``(protocol, trip)`` runs fan out over
:func:`~repro.experiments.common.run_trips`; results are identical for
any worker count.
"""

import numpy as np

from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    init_worker_state,
    run_protocol_cbr,
    run_trips,
    vanlan_protocol,
    worker_state,
)
from repro.experiments.study import policy_factories
from repro.handoff.evaluator import evaluate_policy
from repro.handoff.sessions import (
    adequacy_runs,
    session_lengths,
    time_weighted_median_session,
)

__all__ = ["link_layer_sessions", "path_behaviour",
           "policy_session_medians"]

#: Adequacy window (s) and the reception ratio it must reach.
_WINDOW_S = 1.0
_MIN_RATIO = 0.5
#: A probe counts as delivered only within one probe interval,
#: mirroring the slot semantics of the trace-driven policies.
_DEADLINE_S = 0.1


def _cbr_windows_task(task):
    """One (protocol, trip) CBR run: its per-window reception ratios."""
    name, trip = task
    testbed, seed = worker_state()
    base = ViFiConfig(max_retx=0)
    config = {"ViFi": base, "BRR": base.brr_variant()}[name]
    sim, duration = vanlan_protocol(testbed, trip, config=config,
                                    seed=seed + trip)
    cbr = run_protocol_cbr(sim, duration, deadline_s=_DEADLINE_S)
    return cbr.window_reception_ratio(window_s=_WINDOW_S,
                                      deadline_s=_DEADLINE_S)


def _adequacy(testbed, names, trips, seed):
    """Protocol -> per-trip adequate-window masks, trip k at seed + k."""
    trips = list(trips)
    per_task = iter(run_trips(
        _cbr_windows_task, [(name, trip) for name in names for trip in trips],
        initializer=init_worker_state, initargs=(testbed, seed),
    ))
    return {name: [next(per_task) >= _MIN_RATIO for _ in trips]
            for name in names}


def _median_sessions(masks):
    """Name -> time-weighted median of the sessions its masks pool."""
    return {
        name: time_weighted_median_session([
            length for adequate in per_trip
            for length in session_lengths(adequate, window_s=_WINDOW_S)
        ])
        for name, per_trip in masks.items()
    }


def link_layer_sessions(testbed, trips, seed=0):
    """Figure 7: ViFi's and BRR's live sessions over trips.

    Returns:
        dict protocol -> time-weighted median session length (s).
    """
    return _median_sessions(_adequacy(testbed, ("ViFi", "BRR"), trips,
                                      seed))


def path_behaviour(testbed, trip, seed=0):
    """Figure 8: BRR's and ViFi's connectivity along one trip.

    The runs use protocol seed ``seed + trip``, as in
    :func:`link_layer_sessions`.

    Returns:
        dict protocol -> {"interruptions", "connected_fraction",
        "n_windows"}: gaps between adequate runs, the adequate share
        of windows and the window count.
    """
    out = {}
    for name, (adequate,) in _adequacy(testbed, ("BRR", "ViFi"), (trip,),
                                       seed).items():
        runs = adequacy_runs(adequate)
        out[name] = {
            "interruptions": max(len(runs) - 1, 0),
            "connected_fraction": float(np.mean(adequate)),
            "n_windows": int(len(adequate)),
        }
    return out


def policy_session_medians(testbed, trips):
    """Trace-driven BestBS and AllBSes session medians over matched trips.

    Returns:
        dict policy -> time-weighted median session length (s).
    """
    factories = policy_factories()
    traces = [testbed.generate_probe_trace(trip) for trip in trips]
    return _median_sessions({
        name: [evaluate_policy(trace, factories[name](None))
               .adequate_windows(_WINDOW_S, _MIN_RATIO) for trace in traces]
        for name in ("BestBS", "AllBSes")
    })
