"""TCP experiments: Figures 9 (VanLAN) and 10 (DieselNet).

Trips and profiling days are independent runs (every stochastic
process is keyed by the task arguments through the named-stream
registry), so both figures fan their ``(variant, trip)`` grids over
:func:`~repro.experiments.common.run_trips`: multi-core hosts sweep
them in parallel, and the task-order merge makes pooled results
identical to the old serial loops for any worker count.

Figure 12 and Table 1 read Figure 9's VanLAN TCP runs (Sections 5.4
and 5.5), so :func:`_tcp_vanlan_task` reports what all three read and
a result store computes each run once for them.
"""

from repro.apps.tcp import TcpWorkload
from repro.core.perfect import perfect_relay_efficiency
from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    WARMUP_S,
    brr_vifi_variants,
    dieselnet_protocol,
    init_worker_state,
    memoized_beacon_log,
    require_complete,
    run_protocol_app,
    run_trips,
    vanlan_protocol,
    worker_state,
)
from repro.net.packet import Direction
from repro.sim.rng import RngRegistry

__all__ = ["tcp_dieselnet", "tcp_vanlan", "standard_tcp_variants"]

_DIRECTIONS = (("upstream", Direction.UPSTREAM),
               ("downstream", Direction.DOWNSTREAM))


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
    """One (variant, trip) TCP run on VanLAN, summarized picklably.

    Besides Figure 9's transfer statistics, the cell holds Figure 12's
    ``(packets delivered, data transmissions)`` tally per direction
    under ``"efficiency"``.  The ``ViFi`` cell adds PerfectRelay's
    tallies, estimated from its logs (Section 5.4), and Table 1's two
    coordination reports under ``"coordination"``.
    """
    name, trip = task
    testbed, variants, seed = worker_state()
    sim, duration = vanlan_protocol(testbed, trip, config=variants[name],
                                    seed=seed + trip)
    workload = _run_tcp(sim, duration)
    cell = {
        "durations": [r.duration for r in workload.completed],
        "per_session": workload.transfers_per_session(),
        "completed": len(workload.completed),
        "aborted": len(workload.aborted),
        "elapsed": duration - 2.0 - WARMUP_S,
        "efficiency": {},
    }
    for key, direction in _DIRECTIONS:
        delivered = sum(1 for p in sim.stats.packet_records.values()
                        if p.direction == direction and p.delivered)
        tallies = {name: (delivered, sim.wireless_data_tx(direction))}
        if name == "ViFi":
            tallies["PerfectRelay"] = perfect_relay_efficiency(
                sim.stats, direction)[1:]
            cell.setdefault("coordination", {})[key] = (
                sim.stats.coordination_report(direction))
        cell["efficiency"][key] = tallies
    return cell


def _tcp_dieselnet_task(task):
    """One (variant, day) cell of Figure 10, summarized picklably."""
    name, day = task
    testbed, variants, seed = worker_state()
    log = memoized_beacon_log(testbed, day)
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
    per_task = iter(require_complete(run_trips(
        _tcp_vanlan_task, tasks, workers=workers, store=store,
        initializer=init_worker_state, initargs=(testbed, variants, seed),
    ), tasks))
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


def tcp_dieselnet(testbed, days=(0,), seed=0):
    """Figure 10: TCP transfers/second on DieselNet (trace-driven).

    The ``(variant, day)`` grid of BRR and ViFi fans out over
    :func:`~repro.experiments.common.run_trips`.

    Returns:
        dict name -> {"per_second", "completed", "aborted",
        "median_s"} pooled over profiling days.
    """
    variants = brr_vifi_variants()
    days = list(days)
    tasks = [(name, day) for name in variants for day in days]
    per_task = iter(require_complete(run_trips(
        _tcp_dieselnet_task, tasks,
        initializer=init_worker_state, initargs=(testbed, variants, seed),
    ), tasks))
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
