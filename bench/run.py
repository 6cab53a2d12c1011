"""Cold end-to-end benchmark of the ViFi reproduction, with layer tracing.

Usage, from the repository root::

    python bench/run.py                       # every workload, seed 0
    python bench/run.py --workload vanlan_cbr --seed 3
    python bench/run.py --workload fig09_sweep --seconds 20 --trace 1

Every run of a workload is a fresh Python process with the result store
off, timed from spawn until its results are written.  Times are
reference seconds: wall seconds corrected for the shared host's drift
by probes taken inside the run (``hostspeed.py``).  Runs repeat until
``--seconds`` have been spent (at least ``MIN_RUNS`` of them) and each
end-to-end metric is reported as the median with its quartiles.  Every
run's outputs are checked (see ``workloads.py``); a failed check fails
its unit, and ``failed / attempted`` counts units.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of one traced run (``tracer.py``), which must
reproduce the untraced runs' digests exactly.  Without ``--trace`` both
are run for each workload.  The last stdout line is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Result and
trace files land in ``bench/results/``.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

from hostspeed import corrected
from workloads import WORKLOADS, child_main, fig09_workers, unit_count

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"

#: Fewest timed runs per measurement, whatever ``--seconds`` says.
MIN_RUNS = 3
#: Wall budget of one measurement: the process must end within 180 s.
BUDGET_S = 165.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: (name, unit): the end-to-end metrics, per workload, and the
#: per-layer metrics of a traced run.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])


class BenchError(RuntimeError):
    """A run that cannot be reported: no timings, or a traced run that
    did not reproduce the untraced realization."""


# ----------------------------------------------------------------------
# One run: a child process
# ----------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env.pop("REPRO_RESULT_STORE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _spawn(workload, seed, mode, serial, timeout_s):
    """One child run; returns its parsed result plus spawn-relative times.

    A child that fails, times out or prints no result yields
    ``{"error": reason}``; its process group is killed and reaped.
    """
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(seed)]
    if serial:
        cmd.append("--serial")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {timeout_s:.0f} s"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        tail = err.strip().splitlines()[-3:]
        return {"error": f"exit code {proc.returncode}: "
                         + " | ".join(tail)}
    result = json.loads(lines[-2])
    t_written = json.loads(lines[-1])["t_written"]
    t_first, t_end = result["t_first_event"], result["t_sim_end"]
    result["raw_wall_s"] = t_written - t_spawn
    result["raw_sim_phase_s"] = t_end - t_first
    # Timings are in reference seconds: wall time corrected for the
    # shared host's drift (hostspeed.py).
    speed, busy = result.pop("speed"), result.pop("busy", [])
    result["wall_s"] = corrected(speed, t_spawn, t_written, busy)
    result["setup_s"] = corrected(speed, t_spawn, t_first, busy)
    result["sim_phase_s"] = corrected(speed, t_first, t_end, busy)
    # The sweep's simulation phase is the whole cold regeneration.
    divisor = result["wall_s"] if workload == "fig09_sweep" \
        else result["sim_phase_s"]
    result["sim_rate"] = result["simulated_s"] / divisor
    return result


def _unit_failures(workload, runs):
    """``(attempted, failed, failure lines)`` over the units of *runs*.

    A run that died fails every unit it would have driven.
    """
    attempted = failed = 0
    lines = []
    for run in runs:
        if "error" in run:
            attempted += unit_count(workload)
            failed += unit_count(workload)
            lines.append(f"{workload} all units: run failed: {run['error']}")
            continue
        for unit in run["units"]:
            attempted += 1
            failed += bool(unit["failed_checks"])
            for check in unit["failed_checks"]:
                lines.append(f"{workload} {unit['unit']}: {check}")
    return attempted, failed, lines


def _digests(run):
    return {u["unit"]: u["digest"] for u in run["units"]}


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------

def _spread(values):
    """``(median, q1, q3)`` of *values*."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def measure_timed(workload, seed, seconds):
    """The end-to-end metrics of *workload*: medians over fresh runs.

    Runs repeat until *seconds* are spent, at least ``MIN_RUNS`` times.
    """
    start = time.monotonic()
    deadline = start + BUDGET_S
    runs = []
    while True:
        runs.append(_spawn(workload, seed, "timed", False,
                           deadline - time.monotonic()))
        walls = [r["wall_s"] for r in runs if "error" not in r]
        elapsed = time.monotonic() - start
        typical = statistics.median(walls) if walls else elapsed
        if len(runs) >= MIN_RUNS and elapsed + typical > seconds:
            break
        if time.monotonic() + 2.0 * typical > deadline:
            break
    good = [r for r in runs if "error" not in r]
    if not good:
        raise BenchError(f"{workload}: no run finished: "
                         f"{runs[0]['error']}")
    attempted, failed, failure_lines = _unit_failures(workload, runs)
    reference = _digests(good[0])
    for run in good[1:]:
        if _digests(run) != reference:
            failure_lines.append(
                f"{workload}: digests differ between runs of one seed")
    metrics = {}
    for name, unit in END_TO_END:
        samples = [r[name] for r in good]
        median, q1, q3 = _spread(samples)
        metrics[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                         "n": len(samples), "samples": samples}
    return {
        "workload": workload,
        "seed": seed,
        "mode": "timed",
        "attempted": attempted,
        "failed": failed,
        "failures": failure_lines,
        "correct": not failure_lines,
        "metrics": metrics,
        "units": good[0]["units"],
        "digests": reference,
        "workers": _workers(workload, serial=False),
        "runs": [{k: r.get(k) for k in ("wall_s", "raw_wall_s", "setup_s",
                                        "sim_phase_s", "raw_sim_phase_s",
                                        "sim_rate", "peak_rss_mb", "error")}
                 for r in runs],
    }


def _sum_counters(units):
    total = {}
    for unit in units:
        for key, value in unit["counters"].items():
            total[key] = total.get(key, 0) + value
    return total


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traced, overhead):
    """Per-layer metric values from one traced run's spans and counters."""
    layers = traced["trace"]["layers"]
    entries = {e["entry"]: e["count"] for e in traced["trace"]["entries"]}
    c = _sum_counters(traced["units"])

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    sent = (entries.get("ViFiSimulation.send_upstream", 0)
            + entries.get("ViFiSimulation.send_downstream", 0))
    delivered = (entries.get("FlowRouter._on_vehicle_delivery", 0)
                 + entries.get("FlowRouter._on_wired_delivery", 0))
    planned = c.get("predraw_planned_frames", 0)
    values = {
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.engine.events": c.get("events", 0),
        "sim.engine.us_per_event":
            1e6 * _ratio(self_s("sim.engine"), c.get("events", 0)),
        "net.medium.self_s": self_s("net.medium"),
        "net.medium.frames_tx": c.get("frames_tx", 0),
        "net.medium.delivered_per_tx":
            _ratio(c.get("frames_delivered", 0), c.get("frames_tx", 0)),
        "net.medium.slot_batch_frac":
            _ratio(c.get("slot_batch_frames", 0), c.get("frames_tx", 0)),
        "net.medium.predraw_planned_frac":
            _ratio(planned, planned + c.get("predraw_fallback_frames", 0)),
        "net.channel.self_s": self_s("net.channel"),
        "net.channel.calls": calls("net.channel"),
        "net.propagation.prefill_s": c.get("prefill_s", 0.0),
        "net.propagation.self_s": self_s("net.propagation"),
        "net.propagation.calls": calls("net.propagation"),
        "testbeds.build_s": self_s("testbeds"),
        "net.backplane.self_s": self_s("net.backplane"),
        "net.backplane.msgs": c.get("backplane_msgs", 0),
        "net.backplane.dropped": c.get("backplane_dropped", 0),
        "core.node.self_s": self_s("core.node"),
        "core.node.source_tx_per_pkt":
            _ratio(c.get("source_tx", 0), c.get("packets", 0)),
        "core.node.salvaged_pkts": c.get("salvaged_pkts", 0),
        "core.node.anchor_changes": c.get("anchor_changes", 0),
        "core.probabilities.self_s": self_s("core.probabilities"),
        "core.probabilities.folds": c.get("folds", 0),
        "core.probabilities.fold_s": c.get("fold_s", 0.0),
        "core.relaying.self_s": self_s("core.relaying"),
        "core.relaying.decisions": c.get("relay_decisions", 0),
        "core.relaying.relayed_frac":
            _ratio(c.get("relayed", 0), c.get("relay_decisions", 0)),
        "core.stats.self_s": self_s("core.stats"),
        "core.stats.calls": calls("core.stats"),
        "apps.self_s": self_s("apps"),
        "apps.pkts_sent": sent,
        "apps.delivered_frac": _ratio(delivered, sent),
        "experiments.common.self_s": self_s("experiments.common"),
        "experiments.common.tasks": traced.get("tasks", 0),
        "experiments.common.retries": traced.get("retries", 0),
        "trace.overhead": overhead,
        "trace.coverage":
            _ratio(traced["phase_traced_s"], traced["raw_sim_phase_s"]),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def measure_traced(workload, seed, timed=None):
    """One traced run, checked against untraced runs of the same set-up.

    The untraced references are the runs of *timed*, the workload's
    :func:`measure_timed` report, when they used the traced run's worker
    count.  Otherwise (no *timed*, or the pooled Figure 9 sweep) one
    untraced run with that worker count is made first, so
    ``trace.overhead`` compares like with like.  Raises
    :class:`BenchError` when the traced run does not reproduce every
    unit digest of the untraced runs.
    """
    deadline = time.monotonic() + BUDGET_S
    runs = []
    digests = [timed["digests"]] if timed else []
    if timed and _workers(workload, True) == timed["workers"]:
        phases = [r["sim_phase_s"] for r in timed["runs"]
                  if r["error"] is None]
    else:
        reference = _spawn(workload, seed, "timed", True,
                           deadline - time.monotonic())
        if "error" in reference:
            raise BenchError(f"{workload}: untraced run failed: "
                             f"{reference['error']}")
        runs.append(reference)
        digests.append(_digests(reference))
        phases = [reference["sim_phase_s"]]
    traced = _spawn(workload, seed, "traced", True,
                    deadline - time.monotonic())
    if "error" in traced:
        raise BenchError(f"{workload}: traced run failed: "
                         f"{traced['error']}")
    traced_digests = _digests(traced)
    for reference in digests:
        if reference != traced_digests:
            raise BenchError(
                f"{workload}: the traced run changed the realization "
                f"(digests {traced_digests} vs untraced {reference})")
    overhead = traced["sim_phase_s"] / statistics.median(phases)
    attempted, failed, failure_lines = _unit_failures(workload,
                                                      runs + [traced])
    return {
        "workload": workload,
        "seed": seed,
        "mode": "traced",
        "attempted": attempted,
        "failed": failed,
        "failures": failure_lines,
        "correct": not failure_lines,
        "metrics": per_layer_metrics(traced, overhead),
        "digests": traced_digests,
        "workers": _workers(workload, serial=True),
        "traced_sim_phase_s": traced["sim_phase_s"],
        "untraced_sim_phase_s": phases,
        "layers": traced["trace"]["layers"],
        "edges": traced["trace"]["edges"],
        "entries": traced["trace"]["entries"],
    }


def _workers(workload, serial):
    return fig09_workers(serial) if workload == "fig09_sweep" else 1


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def _provenance(seed):
    sys.path.insert(0, str(ROOT / "src"))
    # git must not search above the checkout for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    from repro.experiments.perf import git_sha, host_context

    return {"host": host_context(), "git_sha": git_sha(), "seed": seed,
            "nproc": os.cpu_count()}


def _write(path, payload):
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, path)


def _print_timed(report):
    print(f"{report['workload']}: end-to-end, seed {report['seed']}")
    for name, unit in END_TO_END:
        m = report["metrics"][name]
        print(f"  {name:<12} {unit:<13} {m['value']:.4f} "
              f"[{m['q1']:.4f}, {m['q3']:.4f}] ({m['n']} runs)")
    _print_failures(report)


def _print_traced(report):
    print(f"{report['workload']}: traced run (per-layer), "
          f"seed {report['seed']}")
    for name, unit in PER_LAYER:
        value = report["metrics"][name]["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {unit:<9} {text}")
    _print_failures(report)


def _print_failures(report):
    print(f"  failed_frac  fraction      "
          f"{_ratio(report['failed'], report['attempted']):.4f} "
          f"({report['failed']} of {report['attempted']} units)")
    for line in report["failures"]:
        print(f"  FAIL {line}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Cold end-to-end ViFi benchmark with layer tracing.")
    parser.add_argument("--workload", action="append",
                        choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="testbed and protocol seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="wall seconds of timed runs per measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default: both")
    parser.add_argument("--child", choices=("timed", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--serial", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    if args.child:
        return child_main(workloads[0], args.seed, args.child, args.serial)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no repro package under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    provenance = _provenance(args.seed)
    host = provenance["host"]
    if host["loadavg_1m"] is not None and host["loadavg_1m"] > os.cpu_count():
        print(f"bench: warning: 1-minute load average {host['loadavg_1m']} "
              f"exceeds {os.cpu_count()} CPUs; timings will be inflated",
              file=sys.stderr)
    modes = ("timed", "traced") if args.trace is None \
        else (("timed",), ("traced",))[args.trace]
    reports = []
    try:
        for workload in workloads:
            timed = None
            if "timed" in modes:
                timed = measure_timed(workload, args.seed, args.seconds)
                _write(RESULTS / f"{workload}.json",
                       {**provenance, **timed})
                _print_timed(timed)
                reports.append(timed)
            if "traced" in modes:
                traced = measure_traced(workload, args.seed, timed)
                _write(RESULTS / f"trace-{workload}.json",
                       {**provenance, **traced})
                _print_traced(traced)
                reports.append(traced)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    single = len(reports) == 1
    metrics = {}
    for report in reports:
        for name, m in report["metrics"].items():
            key = name if single else f"{report['workload']}.{name}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
