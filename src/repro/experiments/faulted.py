"""Degraded-infrastructure study: ViFi vs BestBS under injected faults.

The paper evaluates ViFi on healthy testbeds; its *mechanism* —
auxiliary basestations opportunistically relaying what the anchor
missed — is really an availability story, and the regime where it
should pay most is exactly the one the nominal experiments never
visit: basestations dropping off the air mid-trip.  This module sweeps
a deterministic fault intensity (see :mod:`repro.sim.faults`) and
compares ViFi against the BRR hard-handoff comparator (the paper's
BestBS) on delivery and a summary MoS.

Why ViFi should degrade more gracefully: when the anchor's *radio*
dies, its wired side usually survives (the fault plane models this
deliberately).  Under ViFi an auxiliary BS that overhears the
vehicle's transmission relays it to the anchor over the backplane, and
the anchor still forwards it upstream — service continues through the
outage.  BestBS has no relay path, so every anchor outage is dead air
until the vehicle re-anchors.  The sweep checks that gap as a trend.

Sweep points are independent runs fanned out over
:func:`~repro.experiments.common.run_trips`; a fault schedule is a
pure function of ``(config, duration, bs_ids, seed)``, so results are
identical for any worker count.
"""

from repro.apps.mos import MosConfig, mos_score
from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    run_protocol_cbr,
    run_trips,
    vanlan_protocol,
)
from repro.sim.faults import FaultConfig, FaultSchedule
from repro.testbeds.vanlan import VEHICLE_ID, VanLanTestbed

__all__ = [
    "BASE_FAULTS",
    "FAULT_MATRIX",
    "fault_intensity_sweep",
    "fault_matrix_smoke",
]

#: The intensity-sweep profile: BS radio outages (the availability
#: fault the comparison targets), scaled by
#: :meth:`~repro.sim.faults.FaultConfig.scaled`.  At intensity 1 each
#: BS suffers ~1.5 outages/minute of 8 s each.
BASE_FAULTS = FaultConfig(bs_outage_rate=1.5, bs_outage_duration_s=8.0)

#: One representative config per fault kind, for the CI fault-matrix
#: smoke: every cell must complete and deliver where reachable.
FAULT_MATRIX = {
    "no-fault": FaultConfig(),
    "bs-outage": FaultConfig(bs_outage_rate=4.0, bs_outage_duration_s=5.0),
    "partition": FaultConfig(partition_rate=4.0, partition_duration_s=5.0),
    "burst-loss": FaultConfig(beacon_burst_rate=6.0,
                              beacon_burst_duration_s=1.0),
}


def _summarize(cbr, sim):
    """Picklable per-run summary: delivery, delay, MoS, fault counts."""
    delays = []
    for table in (cbr.up_deliveries, cbr.down_deliveries):
        for seq, arrival in table.items():
            delays.append(arrival - cbr.sent_times[seq])
    mean_delay_ms = (
        1000.0 * sum(delays) / len(delays) if delays else 0.0
    )
    delivery = cbr.delivery_rate()
    plane = sim.fault_plane
    return {
        "delivery": delivery,
        "mean_delay_ms": mean_delay_ms,
        "mos": mos_score(MosConfig().fixed_delay_ms + mean_delay_ms,
                         1.0 - delivery),
        "injected": dict(plane.injected) if plane is not None else {},
        "backplane_dropped": dict(sim.backplane.dropped),
    }


def _faulted_task(task):
    """Worker: one (protocol, fault config, seed) cell (picklable).

    Args:
        task: mapping with ``protocol`` ("ViFi"/"BRR"), ``faults``
            (a :class:`FaultConfig`), and optionally ``trip``,
            ``seed``, ``fault_seed``, ``duration_s``,
            ``testbed_seed``.
    """
    protocol = task["protocol"]
    fault_config = task["faults"]
    trip = int(task.get("trip", 0))
    seed = int(task.get("seed", 0))
    fault_seed = int(task.get("fault_seed", seed))
    testbed = VanLanTestbed(seed=int(task.get("testbed_seed", 0)))
    base = ViFiConfig()
    config = base if protocol == "ViFi" else base.brr_variant()
    motion = testbed.vehicle_motion()
    duration = motion.route.duration
    if task.get("duration_s") is not None:
        duration = min(float(task["duration_s"]), duration)
    schedule = None
    if fault_config.any_enabled():
        schedule = FaultSchedule(
            fault_config, duration, testbed.deployment.bs_ids,
            VEHICLE_ID, seed=fault_seed,
        )
    sim, _ = vanlan_protocol(testbed, trip=trip, config=config,
                             seed=seed, prefill=duration + 1.0,
                             faults=schedule)
    cbr = run_protocol_cbr(sim, duration, deadline_s=0.1)
    summary = _summarize(cbr, sim)
    summary["protocol"] = protocol
    summary["seed"] = seed
    return summary


def fault_intensity_sweep(intensities=(0.0, 1.0, 2.0), trip=0,
                          seeds=(0,), duration_s=60.0, base=BASE_FAULTS,
                          workers=None, store=None):
    """ViFi vs BRR as fault intensity rises (figure-style summary).

    Args:
        intensities: multipliers applied to *base* via
            :meth:`FaultConfig.scaled`; 0 is the nominal world.
        seeds: protocol/fault seeds averaged per point.
        store: passed straight to :func:`run_trips` — rerunning an
            interrupted sweep against the same result store resumes
            it: finished points are cache hits, not recomputed.

    Returns:
        dict intensity -> protocol -> ``{"delivery", "mos",
        "mean_delay_ms"}`` (averaged over *seeds*).
    """
    points = [
        {"protocol": protocol, "faults": base.scaled(intensity),
         "trip": trip, "seed": seed, "fault_seed": seed,
         "duration_s": duration_s, "intensity": intensity}
        for intensity in intensities
        for protocol in ("ViFi", "BRR")
        for seed in seeds
    ]
    results = run_trips(_faulted_task, points, workers=workers,
                        store=store)
    merged = {}
    for point, result in zip(points, results):
        if result is None:
            continue  # permanently failed task of a partial sweep
        cell = merged.setdefault(point["intensity"], {}).setdefault(
            point["protocol"],
            {"delivery": 0.0, "mos": 0.0, "mean_delay_ms": 0.0, "n": 0},
        )
        for key in ("delivery", "mos", "mean_delay_ms"):
            cell[key] += result[key]
        cell["n"] += 1
    for cells in merged.values():
        for cell in cells.values():
            n = cell.pop("n") or 1
            for key in cell:
                cell[key] /= n
    return merged


def fault_matrix_smoke(duration_s=15.0, trip=0, seed=0, workers=0,
                       store=None):
    """Run ViFi once per :data:`FAULT_MATRIX` cell (CI smoke).

    Returns:
        dict cell name -> the worker summary (``delivery``,
        ``injected``, ...).  Every cell must complete without error;
        the caller asserts delivery > 0 where the vehicle is ever
        reachable.
    """
    names = list(FAULT_MATRIX)
    results = run_trips(
        _faulted_task,
        [{"protocol": "ViFi", "faults": FAULT_MATRIX[name],
          "trip": trip, "seed": seed, "duration_s": duration_s}
         for name in names],
        workers=workers, store=store,
    )
    return dict(zip(names, results))
