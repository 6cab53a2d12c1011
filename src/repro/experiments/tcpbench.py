"""TCP experiments: Figures 9 (VanLAN) and 10 (DieselNet).

Trips and profiling days are independent runs (every stochastic
process is keyed by the task arguments through the named-stream
registry), so both figures fan their ``(variant, trip)`` grids over
:func:`~repro.experiments.common.run_trips`: multi-core hosts sweep
them in parallel, and the task-order merge makes pooled results
identical to the old serial loops for any worker count.
"""

from repro.apps.tcp import TcpWorkload
from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    WARMUP_S,
    dieselnet_protocol,
    init_worker_state,
    memoized_beacon_log,
    run_protocol_app,
    run_trips,
    vanlan_protocol,
    worker_state,
)
from repro.sim.rng import RngRegistry

__all__ = ["tcp_dieselnet", "tcp_vanlan", "standard_tcp_variants"]


def standard_tcp_variants():
    """The three bars of Figure 9(a): BRR, diversity-only, full ViFi."""
    base = ViFiConfig()
    return {
        "BRR": base.brr_variant(),
        "OnlyDiversity": base.diversity_only_variant(),
        "ViFi": base,
    }


def _run_tcp(sim, duration):
    """One TCP run; ``bench/workloads.py`` wraps it by name."""
    return run_protocol_app(sim, duration, TcpWorkload)


def _tcp_vanlan_task(task):
    """One (variant, trip) cell of Figure 9, summarized picklably."""
    name, trip = task
    testbed, variants, seed = worker_state()
    sim, duration = vanlan_protocol(testbed, trip, config=variants[name],
                                    seed=seed + trip)
    workload = _run_tcp(sim, duration)
    return {
        "durations": [r.duration for r in workload.completed],
        "per_session": workload.transfers_per_session(),
        "completed": len(workload.completed),
        "aborted": len(workload.aborted),
        "elapsed": duration - 2.0 - WARMUP_S,
    }


def _tcp_dieselnet_task(task):
    """One (variant, day) cell of Figure 10, summarized picklably."""
    name, day = task
    testbed, variants, seed, n_tours = worker_state()
    log = memoized_beacon_log(testbed, day, n_tours=n_tours)
    rngs = RngRegistry(seed).spawn("tcp-dn", name, day)
    sim, duration = dieselnet_protocol(log, rngs, config=variants[name],
                                       seed=seed + day)
    workload = _run_tcp(sim, duration)
    return {
        "durations": [r.duration for r in workload.completed],
        "completed": len(workload.completed),
        "aborted": len(workload.aborted),
        "elapsed": duration - 2.0 - WARMUP_S,
    }


def tcp_vanlan(testbed, trips, variants=None, seed=0, workers=None,
               store=None):
    """Figure 9: median transfer time and transfers/session on VanLAN.

    Args:
        workers: process count for the (variant, trip) fan-out;
            ``None`` uses the host's available cores, 1 runs serially.
            Results are identical for any worker count.

    Returns:
        dict name -> {"median_s", "per_session", "completed",
        "aborted", "per_second"} pooled over trips.
    """
    variants = variants or standard_tcp_variants()
    trips = list(trips)
    tasks = [(name, trip) for name in variants for trip in trips]
    per_task = iter(run_trips(
        _tcp_vanlan_task, tasks, workers=workers, store=store,
        initializer=init_worker_state, initargs=(testbed, variants, seed),
    ))
    results = {}
    for name in variants:
        durations = []
        sessions = []
        completed = aborted = 0
        elapsed = 0.0
        for _ in trips:
            cell = next(per_task)
            durations.extend(cell["durations"])
            sessions.append(cell["per_session"])
            completed += cell["completed"]
            aborted += cell["aborted"]
            elapsed += cell["elapsed"]
        durations.sort()
        results[name] = {
            "median_s": durations[len(durations) // 2] if durations
            else float("inf"),
            "per_session": (sum(sessions) / len(sessions)
                            if sessions else 0.0),
            "completed": completed,
            "aborted": aborted,
            "per_second": completed / elapsed if elapsed > 0 else 0.0,
        }
    return results


def tcp_dieselnet(testbed, days=(0,), variants=None, seed=0,
                  n_tours=1, workers=None, store=None):
    """Figure 10: TCP transfers/second on DieselNet (trace-driven).

    Args:
        workers: process count for the (variant, day) fan-out; same
            contract as :func:`tcp_vanlan`.

    Returns:
        dict name -> {"per_second", "completed", "aborted",
        "median_s"} pooled over profiling days.
    """
    if variants is None:
        base = ViFiConfig()
        variants = {"BRR": base.brr_variant(), "ViFi": base}
    days = list(days)
    tasks = [(name, day) for name in variants for day in days]
    per_task = iter(run_trips(
        _tcp_dieselnet_task, tasks, workers=workers, store=store,
        initializer=init_worker_state,
        initargs=(testbed, variants, seed, n_tours),
    ))
    results = {}
    for name in variants:
        completed = aborted = 0
        durations = []
        elapsed = 0.0
        for _ in days:
            cell = next(per_task)
            completed += cell["completed"]
            aborted += cell["aborted"]
            durations.extend(cell["durations"])
            elapsed += cell["elapsed"]
        durations.sort()
        results[name] = {
            "per_second": completed / elapsed if elapsed > 0 else 0.0,
            "completed": completed,
            "aborted": aborted,
            "median_s": durations[len(durations) // 2] if durations
            else float("inf"),
        }
    return results
