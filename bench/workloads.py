"""The benchmark's four workloads and the child side of one run.

Each run of a workload happens in a fresh interpreter (see ``run.py``),
so every run pays what a researcher regenerating a figure pays: imports,
testbed and link-table builds, bank prefill, pool start.  The child
builds every unit of the workload (set-up), drives them all (the
simulation phase), then summarizes each unit — a digest of its
realization, the layer counters it exposes through public attributes,
and the output checks it failed — and prints one JSON object.

A *unit* is one protocol run: a trip, a profiling day, a VoIP leg, or
one ``(variant, trip)`` task of the Figure 9 sweep.
"""

import hashlib
import json
import os
import resource
import sys
import time

import hostspeed

__all__ = ["WORKLOADS", "child_main", "fig09_workers", "run_workload",
           "unit_count"]

#: The benchmark's workloads; README.md says what each runs and why.
WORKLOADS = ("vanlan_cbr", "dieselnet_cbr", "vanlan_voip", "fig09_sweep")

# Sizes are set by the time cap on the benchmark: every measurement
# makes at least three fresh runs, and a full set of measurements over
# all workloads must fit the cap on a slow day of the shared host.
VANLAN_TRIPS = (0, 1)
DIESELNET_DAYS = (0,)
#: Simulated seconds of each VoIP leg: the first part of trip 0.
VOIP_S = 60.0

#: Seed of the one VanLAN deployment and the one DieselNet trace set,
#: as the paper has one of each.  ``--seed`` varies the protocol seeds:
#: a different testbed changes a run's work by more than the bounds.
TESTBED_SEED = 0
#: Figure 9 as the repository regenerates it: trip 0, its two outer
#: bars, and the default seed whatever ``--seed`` says, because the
#: closed-loop TCP work of a task moves by about 10 % between seeds.
FIG09_TRIPS = (0,)
FIG09_VARIANTS = ("BRR", "ViFi")
FIG09_SEED = 0

#: Slack on the PerfectRelay bound, so exact ties pass.
PERFECT_RELAY_EPS = 1e-9


def unit_count(name):
    """Units one run of workload *name* drives."""
    return {"vanlan_cbr": len(VANLAN_TRIPS),
            "dieselnet_cbr": len(DIESELNET_DAYS),
            "vanlan_voip": 2,
            "fig09_sweep": len(FIG09_VARIANTS) * len(FIG09_TRIPS)}[name]


def fig09_workers(serial):
    """Pool size of the Figure 9 sweep.

    Traced runs sweep serially so every span stays in one process;
    results are identical for any worker count.
    """
    return 1 if serial else min(2, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Unit summaries: digest, counters, checks
# ----------------------------------------------------------------------

def _digest(sim, deliveries):
    """Realization digest: event count, transmissions and deliveries."""
    blob = repr((sim.sim.events_processed,
                 sorted(sim.medium.tx_count.items()), deliveries))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _counters(sim):
    """Layer counters one protocol run exposes through public attributes."""
    medium = sim.medium
    stats = sim.stats
    bank = getattr(sim, "link_bank", None)
    estimator = sim.ctx.estimator_bank
    return {
        "events": sim.sim.events_processed,
        "frames_tx": sum(medium.tx_count.values()),
        "frames_delivered": sum(medium.delivered_count.values()),
        "slot_batch_frames": medium.slot_batch_frames,
        "predraw_planned_frames": medium.predraw_planned_frames,
        "predraw_fallback_frames": medium.predraw_fallback_frames,
        "prefill_s": bank.prefill_wall_s if bank is not None else 0.0,
        "folds": estimator.fold_count if estimator is not None else 0,
        "fold_s": estimator.fold_wall_s if estimator is not None else 0.0,
        "backplane_msgs": sum(sim.backplane.messages_sent.values()),
        "backplane_dropped": sum(sim.backplane.dropped.values()),
        "packets": len(stats.packet_records),
        "source_tx": sum(p.source_tx_count
                         for p in stats.packet_records.values()),
        "salvaged_pkts": stats.salvaged_packets,
        "anchor_changes": stats.anchor_changes,
        "relay_decisions": len(stats.relay_decisions),
        "relayed": sum(1 for d in stats.relay_decisions if d[3]),
    }


def _perfect_relay_failures(sim):
    """ViFi must never beat the PerfectRelay oracle (Section 5.4).

    Checked downstream only.  Upstream, the oracle's log-based estimate
    credits only the auxiliaries in the vehicle's designation snapshot
    at transmission time, while a BS acting on a newer designation can
    relay too; ViFi's upstream efficiency then exceeds the estimate by
    up to ~0.3% (6 of 10 seeds of ``vanlan_cbr``), so it is no bound.
    """
    from repro.core.perfect import perfect_relay_efficiency
    from repro.net.packet import Direction

    vifi = sim.efficiency(Direction.DOWNSTREAM)
    oracle = perfect_relay_efficiency(sim.stats, Direction.DOWNSTREAM)[0]
    if vifi > oracle + PERFECT_RELAY_EPS:
        return [f"perfect_relay_downstream: efficiency {vifi:.6f} > "
                f"oracle {oracle:.6f}"]
    return []


def _summary(name, sim, deliveries, failed):
    return {"unit": name, "digest": _digest(sim, deliveries),
            "simulated_s": sim.sim.now, "counters": _counters(sim),
            "failed_checks": failed}


def _stream_summary(name, sim, app):
    """Summary of a CBR or VoIP unit; delivery pooled over both ways."""
    up = sorted(app.up_deliveries.items())
    down = sorted(app.down_deliveries.items())
    failed = [] if up or down else ["delivery: nothing delivered"]
    if sim.config.relay_enabled:
        failed += _perfect_relay_failures(sim)
    return _summary(name, sim, (up, down), failed)


def _voip_summary(name, sim, stream):
    out = _stream_summary(name, sim, stream)
    mos = [m for m, _, _ in stream.window_quality()]
    if not mos:
        out["failed_checks"].append("mos: no quality windows")
    elif not all(1.0 <= m <= 4.5 for m in mos):
        out["failed_checks"].append(
            f"mos: values outside [1, 4.5] (min {min(mos)}, "
            f"max {max(mos)})")
    return out


def _tcp_summary(name, sim, workload):
    results = [(r.direction, r.started_at, r.finished_at, r.completed)
               for r in workload.results]
    failed = [] if workload.completed \
        else ["delivery: no TCP transfer completed"]
    return _summary(name, sim, results, failed)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class _Phase:
    """Marks the simulation phase: wall stamps plus traced time."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.start = self.end = None

    def _mark(self):
        traced = self.tracer.attributed_s if self.tracer else 0.0
        return time.monotonic(), traced

    def begin(self):
        self.start = self._mark()

    def finish(self):
        self.end = self._mark()


def _drive_units(builds, drive, summarize, phase):
    """Drive pre-built ``(name, sim, duration)`` units back to back."""
    phase.begin()
    apps = [drive(sim, duration) for _, sim, duration in builds]
    phase.finish()
    return [summarize(name, sim, app)
            for (name, sim, _), app in zip(builds, apps)]


def _vanlan_cbr(seed, serial, phase):
    from repro.experiments.common import run_protocol_cbr, vanlan_protocol
    from repro.testbeds.vanlan import VanLanTestbed

    testbed = VanLanTestbed(seed=TESTBED_SEED)
    builds = []
    for trip in VANLAN_TRIPS:
        sim, duration = vanlan_protocol(testbed, trip, seed=seed + trip)
        builds.append((f"trip{trip}", sim, duration))
    return _drive_units(builds, run_protocol_cbr, _stream_summary, phase), {}


def _dieselnet_cbr(seed, serial, phase):
    from repro.experiments.common import dieselnet_protocol, run_protocol_cbr
    from repro.sim.rng import RngRegistry
    from repro.testbeds.dieselnet import DieselNetTestbed

    testbed = DieselNetTestbed(channel=1, seed=TESTBED_SEED)
    builds = []
    for day in DIESELNET_DAYS:
        log = testbed.generate_beacon_log(day)
        rngs = RngRegistry(seed).spawn("bench-dieselnet", day)
        sim, duration = dieselnet_protocol(log, rngs, seed=seed + day,
                                           bursty=True)
        builds.append((f"day{day}", sim, duration))
    return _drive_units(builds, run_protocol_cbr, _stream_summary, phase), {}


def _drive_voip(sim, duration):
    from repro.apps.voip import VoipStream
    from repro.apps.workload import FlowRouter
    from repro.experiments.common import WARMUP_S

    stream = VoipStream(sim, FlowRouter(sim))
    stream.start(WARMUP_S)
    stream.stop(duration - 2.0)
    sim.run(until=duration)
    return stream


def _vanlan_voip(seed, serial, phase):
    from repro.core.protocol import ViFiConfig
    from repro.experiments.common import vanlan_protocol
    from repro.testbeds.vanlan import VanLanTestbed

    testbed = VanLanTestbed(seed=TESTBED_SEED)
    builds = []
    for name, config in (("vifi", ViFiConfig()),
                         ("brr", ViFiConfig().brr_variant())):
        sim, _ = vanlan_protocol(testbed, 0, config=config, seed=seed,
                                 prefill=VOIP_S + 1.0)
        builds.append((name, sim, VOIP_S))
    return _drive_units(builds, _drive_voip, _voip_summary, phase), {}


# The Figure 9 sweep runs tcpbench's own task function, in pool workers
# when pooled.  These wrappers leave it untouched: they capture the
# finished simulation so the worker can summarize its unit next to the
# task's normal result, and capture the SweepResult in the parent.
# Fork-started workers inherit the patched module attributes.
_captured = {}


def _capture_run_tcp(sim, duration, *args):
    workload = _captured["run_tcp"](sim, duration, *args)
    _captured["last_run"] = (sim, workload)
    return workload


def _fig09_task(task):
    in_worker = os.getpid() != _captured["parent_pid"]
    if in_worker:
        hostspeed.start()
    start = time.monotonic()
    result = dict(_captured["task"](task))
    sim, workload = _captured.pop("last_run")
    name, trip = task
    result["bench_unit"] = _tcp_summary(f"{name}-trip{trip}", sim,
                                        workload)
    if in_worker:
        end = time.monotonic()
        result["bench_busy"] = [
            os.getpid(), start, end,
            hostspeed.corrected(hostspeed.drain(), start, end)]
    return result


def _capture_sweep(*args, **kwargs):
    sweep = _captured["run_trips"](*args, **kwargs)
    _captured["sweep"] = sweep
    return sweep


def _install_fig09_capture():
    from repro.experiments import tcpbench

    if "task" in _captured:
        return
    _captured.update(task=tcpbench._tcp_vanlan_task,
                     run_tcp=tcpbench._run_tcp,
                     run_trips=tcpbench.run_trips,
                     parent_pid=os.getpid())
    tcpbench._tcp_vanlan_task = _fig09_task
    tcpbench._run_tcp = _capture_run_tcp
    tcpbench.run_trips = _capture_sweep


def _fig09_sweep(seed, serial, phase):
    from repro.experiments.tcpbench import standard_tcp_variants, tcp_vanlan
    from repro.testbeds.vanlan import VanLanTestbed

    _install_fig09_capture()
    testbed = VanLanTestbed(seed=TESTBED_SEED)
    variants = {name: config
                for name, config in standard_tcp_variants().items()
                if name in FIG09_VARIANTS}
    phase.begin()
    figure = tcp_vanlan(testbed, trips=FIG09_TRIPS, variants=variants,
                        seed=FIG09_SEED, workers=fig09_workers(serial),
                        store=False)
    phase.finish()
    sweep = _captured.pop("sweep")
    tasks = [(name, trip) for name in variants for trip in FIG09_TRIPS]
    failures = dict(sweep.failures)
    units = []
    busy = []
    for index, ((name, trip), cell) in enumerate(zip(tasks, sweep)):
        if cell is None:
            reason = failures.get(index, "no result in a partial sweep")
            units.append({"unit": f"{name}-trip{trip}", "digest": None,
                          "simulated_s": 0.0, "counters": {},
                          "failed_checks": [f"sweep: {reason}"]})
        else:
            units.append(cell["bench_unit"])
            if "bench_busy" in cell:
                busy.append(cell["bench_busy"])
    vifi, brr = figure["ViFi"]["completed"], figure["BRR"]["completed"]
    if vifi < brr:
        for unit in units:
            if unit["unit"].startswith("ViFi-"):
                unit["failed_checks"].append(
                    f"vifi_vs_brr: ViFi completed {vifi} < BRR {brr}")
    return units, {"figure": figure, "tasks": len(sweep),
                   "retries": sweep.retries, "busy": busy}


_RUNNERS = dict(zip(WORKLOADS, (_vanlan_cbr, _dieselnet_cbr, _vanlan_voip,
                                 _fig09_sweep)))


def run_workload(name, seed, serial=False, tracer=None):
    """Build and drive one workload in this process.

    Returns a dict with the unit summaries, the simulated seconds, the
    monotonic stamps of the first simulated event and of the end of the
    simulation phase, the traced time inside that phase (0 untraced),
    and workload extras (the Figure 9 payload, task and retry counts).
    """
    phase = _Phase(tracer)
    units, extra = _RUNNERS[name](seed, serial, phase)
    return {
        "units": units,
        "simulated_s": sum(u["simulated_s"] for u in units),
        "t_first_event": phase.start[0],
        "t_sim_end": phase.end[0],
        "phase_traced_s": phase.end[1] - phase.start[1],
        **extra,
    }


def _peak_rss_mb():
    """Largest resident set of this process or any reaped child (MB)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def child_main(workload, seed, mode, serial):
    """Entry point of one benchmark run; prints the result as JSON.

    *mode* is ``"timed"`` or ``"traced"``.  Library output on stdout is
    redirected to stderr so the result stays parseable: the result
    object is the first stdout line and the monotonic time at which it
    had been written is the second.  The result carries this process's
    host-speed samples and, for a pooled sweep, each task's span in its
    worker (see :func:`hostspeed.corrected`).
    """
    hostspeed.start()
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout.flush()
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer().install()
    result = run_workload(workload, seed, serial=serial, tracer=tracer)
    result["peak_rss_mb"] = _peak_rss_mb()
    result["speed"] = hostspeed.stop()
    if tracer is not None:
        result["trace"] = {
            "layers": tracer.layers(),
            "edges": tracer.edges(),
            "entries": tracer.entries(),
        }
    out.write(json.dumps(result) + "\n")
    out.flush()
    out.write(json.dumps({"t_written": time.monotonic()}) + "\n")
    out.close()
    return 0
