"""Pinned performance workloads: the tracked perf benchmark.

The ROADMAP north star is a simulator that runs as fast as the hardware
allows, so fixed protocol workloads are tracked PR-over-PR in
``BENCH_perf.json`` at the repository root.  Two single-process pinned
workloads cover the two link-table flavours:

* ``vanlan_cbr_120s`` — 120 s of the deployment-style VanLAN CBR run
  (full layered radio model: path loss, spatial field, shadowing, gray
  periods, steered burst losses).  This is the workload the link-
  evaluation fast path and the banked/batched fast paths target.
* ``dieselnet_cbr_60s`` — 60 s of the trace-driven DieselNet run
  (per-second beacon-loss rates steering the burst chains).

plus a multi-trip scaling workload, ``vanlan_multitrip``, that sweeps
independent (trip, seed) runs through the process-pool
:func:`~repro.experiments.common.run_trips` and checks that parallel
and serial sweeps merge to identical outputs.

Two rates are tracked per single-process workload:

* ``events_per_s`` — heap events processed per wall second (the
  engine-throughput metric PR 1 introduced);
* ``sim_s_per_wall_s`` — simulated seconds per wall second.  Since
  PR 2 deliberately *removes* heap events (merged transmissions,
  slotted beacons), events/sec under-reports the real speedup of a
  fixed workload; the sim-rate is the faithful workload-level metric
  and is what the speedup targets are defined on.

Workloads pin every seed, so the event count is deterministic and the
only variable is wall time.  Garbage collection is disabled inside the
timed region to cut run-to-run variance.

``BASELINE_SIM_RATE`` records the pre-fast-path seed implementation
measured on the reference machine with this same harness; the perf
benchmark asserts the fast paths clear ``TARGET_SPEEDUP`` /
``TARGET_SPEEDUP_DIESELNET``, and ``tools/perf_smoke.py`` fails when a
change regresses either tracked rate by more than its tolerance
against the committed ``BENCH_perf.json``.
"""

import gc
import json
import pathlib
import subprocess
import time

from repro.experiments.common import (
    available_workers,
    build_shared_banks,
    dieselnet_protocol,
    install_shared_banks,
    run_protocol_cbr,
    run_trips,
    vanlan_cbr_trip,
    vanlan_protocol,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "BASELINE_EVENTS_PER_S",
    "BASELINE_SIM_RATE",
    "BENCH_PATH",
    "SCALING_WORKLOAD",
    "TARGET_SPEEDUP",
    "TARGET_SPEEDUP_DIESELNET",
    "TARGET_PARALLEL_SPEEDUP",
    "WORKLOADS",
    "git_sha",
    "host_context",
    "profile_workload",
    "run_perf_suite",
    "run_trip_scaling",
    "run_workload",
    "write_bench_file",
]

#: Where the tracked benchmark payload lives (repository root).
BENCH_PATH = pathlib.Path(__file__).resolve().parents[3] / "BENCH_perf.json"

#: Events/sec of the pre-fast-path seed implementation (commit c3cd8d7)
#: on the reference machine, measured with this harness (gc disabled,
#: identical pinned seeds).  Kept for the events/sec trend line.
BASELINE_EVENTS_PER_S = {
    "vanlan_cbr_120s": 11975.0,
    "dieselnet_cbr_60s": 43580.0,
}

#: Simulated seconds per wall second of the seed implementation on the
#: reference machine.  The seed processed events at the rates above
#: with fixed event counts (84858 events / 120 s and 41641 / 60 s), so
#: the sim-rate baseline follows from the same measurements.
BASELINE_SIM_RATE = {
    "vanlan_cbr_120s": 11975.0 * 120.0 / 84858.0,
    "dieselnet_cbr_60s": 43580.0 * 60.0 / 41641.0,
}

#: Required sim-rate speedup on the single-process VanLAN workload.
#: Asserted floor with ~12% headroom below the committed measurement
#: for shared-runner noise, mirroring PR 2's 4.0-floor / 4.52-measured
#: posture (PR 3 commits ~4.9x, with ~5.3x observed in quiet windows).
TARGET_SPEEDUP = 4.3

#: Required sim-rate speedup on the trace-driven DieselNet workload
#: (PR 3 commits ~1.7-1.9x; floor with noise headroom).
TARGET_SPEEDUP_DIESELNET = 1.4

#: Required parallel speedup of a 4-trip sweep on >= 4 free cores.
TARGET_PARALLEL_SPEEDUP = 3.0

WORKLOADS = ("vanlan_cbr_120s", "dieselnet_cbr_60s")

SCALING_WORKLOAD = "vanlan_multitrip"


def _build_vanlan():
    from repro.testbeds.vanlan import VanLanTestbed

    sim, _ = vanlan_protocol(VanLanTestbed(seed=0), trip=0, seed=0)
    return sim, 120.0


def _build_dieselnet():
    from repro.testbeds.dieselnet import DieselNetTestbed

    log = DieselNetTestbed(channel=1, seed=0).generate_beacon_log(0)
    sim, duration = dieselnet_protocol(
        log, RngRegistry(0).spawn("perf"), seed=0, bursty=True
    )
    return sim, min(duration, 60.0)


_BUILDERS = {
    "vanlan_cbr_120s": _build_vanlan,
    "dieselnet_cbr_60s": _build_dieselnet,
}


def host_context():
    """Host-state snapshot recorded alongside every measurement.

    Perf numbers from shared runners are meaningless without knowing
    how loaded the box was and which interpreter produced them; these
    fields make a committed ``BENCH_perf.json`` (and any ad-hoc bench
    record) self-describing:

    * ``cpu_count`` — logical CPUs visible to the process;
    * ``loadavg_1m`` — 1-minute load average at measurement time
      (``None`` where the platform has no ``getloadavg``), the
      contention signal to read a surprising delta against;
    * ``python`` / ``numpy`` — interpreter and array-library versions.
    """
    import os
    import platform

    import numpy

    try:
        loadavg = round(os.getloadavg()[0], 2)
    except (AttributeError, OSError):
        loadavg = None
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_1m": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_sha():
    """Short commit hash of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def run_workload(name):
    """Run one pinned workload; return its measurement record.

    Returns a dict with the tracked schema: ``workload``, ``wall_s``,
    ``events``, ``events_per_s``, ``sim_s_per_wall_s``, ``git_sha`` —
    plus the recorded seed baselines and the resulting speedups
    (``speedup_vs_baseline`` is the sim-rate speedup the targets are
    defined on; ``events_speedup_vs_baseline`` keeps the PR 1 trend
    line).  Construction cost is reported separately: ``build_s`` is
    the wall spent building the simulation (testbed, link table,
    propagation bank) and ``prefill_s`` the bank-prefill share of it —
    neither is ever charged to the timed region, so the sim-rate
    reflects run cost alone.  ``estimator_fold_s`` is the wall spent
    inside the estimator bank's per-second vectorized folds.
    ``host`` snapshots the machine condition (:func:`host_context`)
    so a surprising rate is attributable to load, not guessed at.
    ``faults`` is always ``"none"``: perf workloads run the nominal
    world (no fault plane installed), and the field pins that so a
    future faulted benchmark cannot be confused with these baselines.
    ``store`` is likewise pinned to all-zero counters: pinned
    workloads never read the result store (a warm cache would turn a
    perf measurement into a disk read), and the field makes that
    explicit so a cached rate cannot masquerade as an engine speedup.
    """
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; have {WORKLOADS}")
    t0 = time.perf_counter()
    sim, duration = _BUILDERS[name]()
    build_wall = time.perf_counter() - t0
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        run_protocol_cbr(sim, duration)
        wall = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    events = sim.sim.events_processed
    events_per_s = events / wall if wall > 0 else float("inf")
    sim_rate = duration / wall if wall > 0 else float("inf")
    bank = getattr(sim, "link_bank", None)
    record = {
        "workload": name,
        "wall_s": round(wall, 4),
        "build_s": round(build_wall, 4),
        "prefill_s": round(getattr(bank, "prefill_wall_s", 0.0), 4),
        "events": int(events),
        "events_per_s": round(events_per_s, 1),
        "sim_s_per_wall_s": round(sim_rate, 2),
        "faults": "none",
        "store": {"hits": 0, "misses": 0, "verify_failures": 0},
        "estimator_fold_s": round(sim.ctx.estimator_bank.fold_wall_s, 4),
        "git_sha": git_sha(),
        "host": host_context(),
    }
    baseline_rate = BASELINE_SIM_RATE.get(name)
    if baseline_rate:
        record["baseline_sim_s_per_wall_s"] = round(baseline_rate, 2)
        record["speedup_vs_baseline"] = round(sim_rate / baseline_rate, 2)
    baseline_events = BASELINE_EVENTS_PER_S.get(name)
    if baseline_events:
        record["baseline_events_per_s"] = baseline_events
        record["events_speedup_vs_baseline"] = round(
            events_per_s / baseline_events, 2
        )
    return record


def profile_workload(name, top=25, sort="cumulative", dump_path=None):
    """cProfile one pinned workload; return the top-*top* report text.

    The residual profile is the input every perf PR argues from;
    ``python -m repro bench --profile`` prints it per workload so the
    numbers are citable without ad-hoc scripts, and
    ``--profile-out <dir>`` additionally dumps the raw ``.pstats``
    payload per workload so successive perf PRs can *diff* profiles
    instead of eyeballing printouts.

    Args:
        name: a pinned workload name (see :data:`WORKLOADS`).
        top: rows to keep per sort order.
        sort: a ``pstats`` sort key (``"cumulative"``, ``"tottime"``,
            ...).
        dump_path: when set, write the raw profiler stats there
            (loadable with :class:`pstats.Stats` /
            ``snakeviz``-style tooling).

    Returns:
        ``(header_line, report_text)``.
    """
    import cProfile
    import io
    import pstats

    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; have {WORKLOADS}")
    sim, duration = _BUILDERS[name]()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    run_protocol_cbr(sim, duration)
    profiler.disable()
    wall = time.perf_counter() - t0
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)
    if dump_path is not None:
        stats.dump_stats(dump_path)
    header = (f"{name}: {sim.sim.events_processed} events in "
              f"{wall:.3f} s under cProfile "
              f"({stats.total_calls} calls; top {top} by {sort})")
    return header, stream.getvalue()


def run_perf_suite(workloads=WORKLOADS, repeats=1):
    """Measure every workload; keep the best (least-noisy) repeat."""
    results = []
    for name in workloads:
        best = None
        for _ in range(max(int(repeats), 1)):
            record = run_workload(name)
            if best is None or record["events_per_s"] > best["events_per_s"]:
                best = record
        results.append(best)
    return results


def run_trip_scaling(n_trips=4, duration_s=40.0, workers=None,
                     testbed_seed=0):
    """The multi-trip scaling workload: serial vs process-pool sweep.

    Builds one shared prefilled propagation bank per trip in the
    parent (``bank_build_s``), then runs *n_trips* independent pinned
    VanLAN CBR trips three ways: serially with per-task banks (the
    pre-sharing cost), serially with the shared banks, and through
    :func:`~repro.experiments.common.run_trips` on a pool with the
    shared banks inherited across the fork.  ``outputs_identical`` is
    the parallel determinism contract and
    ``shared_bank_identical`` the sharing contract (shared and
    per-task banks are bit-identical);
    both must hold on any machine.  The parallel speedup is only
    meaningful when the host actually has free cores, so
    ``available_workers`` is recorded alongside;
    ``bank_share_task_speedup`` records what sharing saves per task.

    Returns:
        The scaling record for ``BENCH_perf.json``.
    """
    if workers is None:
        # Always exercise the pool (even a single-core host must
        # reproduce the serial outputs); use every core up to the
        # trip count when the host has them.
        workers = min(max(available_workers(), 2), max(int(n_trips), 1))
    tasks = [
        {"trip": trip, "seed": trip, "duration_s": float(duration_s),
         "testbed_seed": int(testbed_seed)}
        for trip in range(int(n_trips))
    ]
    # Per-task banks first (the registry must be empty for this leg).
    install_shared_banks({})
    # store=False throughout: an ambient result store must never serve
    # these sweeps, or the "parallel speedup" would be measuring warm
    # cache reads instead of the pool.
    t0 = time.perf_counter()
    fresh = run_trips(vanlan_cbr_trip, tasks, workers=1, store=False)
    fresh_wall = time.perf_counter() - t0
    # One shared prefilled bank per trip, built once in the parent.
    t0 = time.perf_counter()
    banks = build_shared_banks(testbed_seed, range(int(n_trips)))
    bank_build_s = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        serial = run_trips(vanlan_cbr_trip, tasks, workers=1, store=False,
                           initializer=install_shared_banks,
                           initargs=(banks,))
        serial_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_trips(vanlan_cbr_trip, tasks, workers=workers,
                             store=False,
                             initializer=install_shared_banks,
                             initargs=(banks,))
        parallel_wall = time.perf_counter() - t0
    finally:
        install_shared_banks({})
    hits = sum(1 for record in serial if record.get("bank_shared"))

    def _sans_flag(results):
        return [{k: v for k, v in record.items() if k != "bank_shared"}
                for record in results]

    available = available_workers()
    if available >= 4 and workers >= 4:
        gate = "enforced"
    else:
        # The speedup target only binds with real free cores; record
        # exactly why it is skipped so a sub-1.0 parallel_speedup on a
        # starved host reads as expected pool overhead, not as a
        # regression.
        gate = (f"skipped: available_workers: {available}, "
                f"workers: {workers} (target needs >= 4 of each)")
    n = max(len(tasks), 1)
    return {
        "workload": SCALING_WORKLOAD,
        "n_trips": int(n_trips),
        "trip_duration_s": float(duration_s),
        "workers": int(workers),
        "available_workers": available,
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "parallel_speedup": round(serial_wall / parallel_wall, 2)
        if parallel_wall > 0 else float("inf"),
        "parallel_gate": gate,
        "outputs_identical": serial == parallel,
        "bank_build_s": round(bank_build_s, 4),
        "bank_share_hit_rate": round(hits / n, 3),
        "per_task_s_fresh_bank": round(fresh_wall / n, 4),
        "per_task_s_shared_bank": round(serial_wall / n, 4),
        "bank_share_task_speedup": round(fresh_wall / serial_wall, 2)
        if serial_wall > 0 else float("inf"),
        "shared_bank_identical": _sans_flag(serial) == _sans_flag(fresh),
        "store": dict(parallel.store),
        "git_sha": git_sha(),
    }


def write_bench_file(results, scaling=None, path=BENCH_PATH):
    """Persist the tracked payload; returns the path written.

    Args:
        results: single-process workload records.
        scaling: optional multi-trip scaling record; when omitted, the
            scaling entry already committed at *path* is carried over
            so a partial rerun never silently drops it.
    """
    path = pathlib.Path(path)
    if scaling is None and path.exists():
        try:
            with open(path) as handle:
                scaling = json.load(handle).get("scaling")
        except (OSError, ValueError):
            scaling = None
    payload = {
        "git_sha": git_sha(),
        "target_speedup": TARGET_SPEEDUP,
        "target_speedup_dieselnet": TARGET_SPEEDUP_DIESELNET,
        "target_parallel_speedup": TARGET_PARALLEL_SPEEDUP,
        "workloads": results,
    }
    if scaling is not None:
        payload["scaling"] = scaling
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path
