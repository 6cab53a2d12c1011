"""Environmental-factor study (the paper's companion technical report).

Section 5 notes: "we have conducted a broader study of the performance
of ViFi across a range of environmental factors.  These factors include
the density of BSes and the speed of the vehicle, which we could not
control for either of our testbeds ... ViFi performs well across these
factors."  The synthetic testbed *can* control both, so this module
sweeps them: ViFi-vs-BRR delivery on the CBR workload as the BS
population shrinks and as the shuttle speeds up.

Sweep points are independent runs, so both sweeps fan out over
:func:`~repro.experiments.common.run_trips` (*workers* processes;
results are identical for any count).
"""

from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    require_complete,
    run_protocol_cbr,
    run_trips,
)
from repro.testbeds.vanlan import VEHICLE_ID, VanLanTestbed

__all__ = ["density_sweep", "speed_sweep"]


def _run_pair(testbed, trip, bs_ids, seed):
    """Delivery rate for (ViFi, BRR) over one trip and BS subset."""
    from repro.core.protocol import ViFiSimulation
    rates = {}
    base = ViFiConfig()
    for name, config in (("ViFi", base), ("BRR", base.brr_variant())):
        motion = testbed.vehicle_motion()
        table = testbed.build_link_table(trip, motion, bs_ids=bs_ids)
        sim = ViFiSimulation(bs_ids, table, config=config, seed=seed,
                             vehicle_id=VEHICLE_ID)
        cbr = run_protocol_cbr(sim, motion.duration,
                               deadline_s=0.1)
        rates[name] = cbr.delivery_rate()
    return rates


def _density_task(task):
    """One BS-subset point of the density sweep (picklable)."""
    seed, trip, size = task
    testbed = VanLanTestbed(seed=seed)
    all_bs = testbed.deployment.bs_ids
    # Deterministic, spread-out subset: every k-th BS.
    step = max(len(all_bs) // size, 1)
    subset = all_bs[::step][:size]
    return _run_pair(testbed, trip, subset, seed=seed + size)


def _speed_task(task):
    """One vehicle-speed point of the speed sweep (picklable)."""
    seed, trip, speed = task
    testbed = VanLanTestbed(seed=seed, speed_mps=speed / 3.6)
    return _run_pair(testbed, trip, testbed.deployment.bs_ids,
                     seed=seed + int(speed))


def density_sweep(seed=0, trip=0, subset_sizes=(3, 6, 11), workers=None,
                  store=None):
    """Delivery vs number of deployed BSes.

    Returns:
        dict size -> {"ViFi": rate, "BRR": rate}.
    """
    sizes = list(subset_sizes)
    tasks = [(seed, trip, size) for size in sizes]
    results = require_complete(
        run_trips(_density_task, tasks, workers=workers, store=store),
        tasks)
    return dict(zip(sizes, results))


def speed_sweep(seed=0, trip=0, speeds_kmh=(20.0, 40.0, 60.0),
                workers=None, store=None):
    """Delivery vs vehicle speed.

    Returns:
        dict speed_kmh -> {"ViFi": rate, "BRR": rate}.
    """
    speeds = list(speeds_kmh)
    tasks = [(seed, trip, speed) for speed in speeds]
    results = require_complete(
        run_trips(_speed_task, tasks, workers=workers, store=store),
        tasks)
    return dict(zip(speeds, results))
