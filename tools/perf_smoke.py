#!/usr/bin/env python
"""Perf smoke check: run the pinned workloads, track, gate regressions.

Usage::

    PYTHONPATH=src python tools/perf_smoke.py [--repeats N]
        [--tolerance 0.2] [--no-write] [--no-scaling]
        [--profile [--profile-top N] [--profile-sort KEY]
         [--profile-out DIR]]

Runs the pinned perf workloads plus the multi-trip scaling sweep (see
``repro.experiments.perf``), prints the per-workload deltas against the
committed ``BENCH_perf.json``, rewrites the file with the fresh
numbers, and exits non-zero when any workload regressed by more than
``--tolerance`` (default 20%) on a tracked rate, when the parallel
sweep's outputs diverge from the serial sweep, or when the shared
propagation banks stop reproducing per-task banks bit for bit.
Intended as the CI perf gate: wall-clock noise on shared runners is
absorbed by the tolerance and the best-of-``--repeats`` policy —
``--repeats 1`` (the default) is fine for a quick look, but **gating
runs should use ``--repeats 3``** (what ``tools/ci_check.py`` passes)
so the ±10% container noise does not eat the regression headroom.
Simulation build cost (testbed, link table, bank prefill) is reported
as its own ``build_s``/``prefill_s`` fields and never charged to the
timed region.  Each workload also records the wall spent in the
estimator bank's single per-second vectorized fold
(``estimator_fold_s``).

The scaling entry records whether the parallel-speedup target was
enforced; on hosts without four free cores the recorded
``parallel_gate`` spells out the skip reason (e.g. ``available_workers:
1``) so a sub-1.0 speedup reads as pool overhead, not a regression.
It also records the shared-bank economics: ``bank_build_s`` (one
prefilled bank per trip, built once), ``bank_share_hit_rate``, and
``bank_share_task_speedup`` (per-task wall with shared vs per-task
banks).

``--profile`` skips gating and instead runs each pinned workload under
cProfile, printing the top-N functions per workload — the residual
profile future perf PRs cite.  ``--profile-out DIR`` additionally
writes one ``<workload>.pstats`` file per workload into *DIR* so
profiles can be diffed across PRs with :mod:`pstats` tooling.

A committed file whose workloads do not match the current pinned set
(renamed or newly added workloads) is reported clearly and does not
gate — fresh numbers simply establish the new baseline.

Also available as ``python -m repro bench``.
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.perf import (  # noqa: E402
    BENCH_PATH,
    WORKLOADS,
    profile_workload,
    run_perf_suite,
    run_trip_scaling,
    write_bench_file,
)

#: Rates gated against the committed numbers (higher is better).
#: ``sim_s_per_wall_s`` always gates (the workload-level metric the
#: speedup targets are defined on).  ``events_per_s`` only gates when
#: the pinned event count is still comparable: a fast path that
#: *removes* heap events (merged transmissions, backoff freezing)
#: legitimately lowers ev/s while making the run faster, and must not
#: read as a regression.
TRACKED_RATES = ("events_per_s", "sim_s_per_wall_s")

#: Relative event-count change beyond which events_per_s stops gating
#: (the workload was restructured, not slowed down).
EVENT_COUNT_COMPARABLE = 0.02


def _delta(new, old):
    """Signed fractional change, or ``None`` when either is missing."""
    if not new or not old:
        return None
    return new / old - 1.0


def compare_to_committed(results, committed, tolerance):
    """Compare fresh records to the committed file.

    Returns:
        ``(failures, notes)`` — failure strings gate the exit code;
        notes describe schema drift (missing / renamed / unmeasured
        workloads) without failing the check.
    """
    failures = []
    notes = []
    committed_workloads = committed.get("workloads")
    if committed_workloads is None:
        if committed:
            notes.append("committed BENCH_perf.json has no 'workloads' "
                         "entry; treating every workload as new")
        return failures, notes
    previous = {}
    for entry in committed_workloads:
        name = entry.get("workload")
        if name is None:
            notes.append("committed entry without a 'workload' name "
                         "ignored")
            continue
        previous[name] = entry
    measured = {record["workload"] for record in results}
    for name in sorted(set(previous) - measured):
        notes.append(
            f"committed workload {name!r} is not in the current pinned "
            f"set (renamed or retired); its baseline will be dropped "
            f"on rewrite"
        )
    for record in results:
        name = record["workload"]
        old = previous.get(name)
        if old is None:
            notes.append(f"workload {name!r} has no committed baseline "
                         f"yet; recording fresh numbers")
            continue
        for rate in TRACKED_RATES:
            delta = _delta(record.get(rate), old.get(rate))
            if delta is None:
                if rate not in old:
                    notes.append(
                        f"{name}: committed entry lacks {rate!r} "
                        f"(older schema); not gated on it"
                    )
                continue
            if delta < -tolerance:
                if rate == "events_per_s":
                    old_events = old.get("events")
                    new_events = record.get("events")
                    if old_events and new_events and abs(
                        new_events / old_events - 1.0
                    ) > EVENT_COUNT_COMPARABLE:
                        notes.append(
                            f"{name}: events_per_s {delta:+.1%} with "
                            f"the event count restructured "
                            f"({old_events} -> {new_events}); gating "
                            f"on sim_s_per_wall_s only"
                        )
                        continue
                failures.append(
                    f"{name}: {rate} {record[rate]:.1f} is "
                    f"{-delta:.1%} below committed {old[rate]:.1f} "
                    f"(tolerance {tolerance:.0%})"
                )
    return failures, notes


def print_report(results, committed, scaling=None):
    """Per-workload summary with deltas vs the committed numbers."""
    previous = {
        entry.get("workload"): entry
        for entry in committed.get("workloads", [])
        if isinstance(entry, dict)
    }
    host = next((record.get("host") for record in results
                 if record.get("host")), None)
    if host:
        load = host.get("loadavg_1m")
        print(f"host: {host.get('cpu_count')} cpus"
              + (f", load {load}" if load is not None else "")
              + f", python {host.get('python')}"
              + f", numpy {host.get('numpy')}")
    for record in results:
        old = previous.get(record["workload"]) or {}
        deltas = []
        for rate, label in (("events_per_s", "ev/s"),
                            ("sim_s_per_wall_s", "sim-rate")):
            delta = _delta(record.get(rate), old.get(rate))
            if delta is not None:
                deltas.append(f"{label} {delta:+.1%}")
        speedup = record.get("speedup_vs_baseline")
        extra = f"  ({speedup}x vs seed)" if speedup else ""
        if deltas:
            extra += "  [" + ", ".join(deltas) + "]"
        build = record.get("build_s")
        if build is not None:
            prefill = record.get("prefill_s", 0.0)
            extra += (f"  [build {build:.3f} s"
                      + (f", prefill {prefill:.3f} s" if prefill else "")
                      + "]")
        fold = record.get("estimator_fold_s")
        if fold:
            extra += f"  [estimator fold {fold:.3f} s]"
        print(f"{record['workload']:<20s} {record['events']:>7d} events  "
              f"{record['wall_s']:>8.3f} s  "
              f"{record['events_per_s']:>9.0f} ev/s  "
              f"{record['sim_s_per_wall_s']:>7.1f}x real{extra}")
    if scaling is not None:
        same = "identical" if scaling["outputs_identical"] else "DIVERGED"
        print(f"{scaling['workload']:<20s} {scaling['n_trips']} trips x "
              f"{scaling['trip_duration_s']:.0f} s  serial "
              f"{scaling['serial_wall_s']:.3f} s  parallel "
              f"{scaling['parallel_wall_s']:.3f} s on "
              f"{scaling['workers']} workers "
              f"({scaling['parallel_speedup']}x, outputs {same})")
        if "bank_build_s" in scaling:
            shared = "bit-identical" \
                if scaling.get("shared_bank_identical") else "DIVERGED"
            print(f"{'':<20s} shared banks built once in "
                  f"{scaling['bank_build_s']:.3f} s  hit rate "
                  f"{scaling['bank_share_hit_rate']:.0%}  per-task "
                  f"{scaling['per_task_s_fresh_bank']:.3f} s -> "
                  f"{scaling['per_task_s_shared_bank']:.3f} s "
                  f"({scaling['bank_share_task_speedup']}x, "
                  f"outputs {shared})")
        gate = scaling.get("parallel_gate")
        if gate and gate != "enforced":
            print(f"{'':<20s} parallel-speedup target {gate}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=1,
                        help="measurements per workload; best is kept "
                             "(use 3 for gating runs so container "
                             "wall-clock noise does not eat the "
                             "regression headroom)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional rate regression")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and compare without rewriting "
                             "BENCH_perf.json")
    parser.add_argument("--no-scaling", action="store_true",
                        help="skip the multi-trip scaling sweep")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each pinned workload and print "
                             "the top functions instead of gating")
    parser.add_argument("--profile-top", type=int, default=25,
                        help="rows per workload in --profile output")
    parser.add_argument("--profile-sort", default="cumulative",
                        help="pstats sort key for --profile "
                             "(e.g. cumulative, tottime)")
    parser.add_argument("--profile-out", metavar="DIR", default=None,
                        help="with --profile, also write one "
                             "<workload>.pstats file per workload "
                             "into DIR (created if missing) so "
                             "profiles can be diffed across PRs")
    args = parser.parse_args(argv)

    if args.profile:
        out_dir = None
        if args.profile_out is not None:
            out_dir = pathlib.Path(args.profile_out)
            out_dir.mkdir(parents=True, exist_ok=True)
        for name in WORKLOADS:
            dump = str(out_dir / f"{name}.pstats") if out_dir else None
            header, report = profile_workload(
                name, top=args.profile_top, sort=args.profile_sort,
                dump_path=dump,
            )
            print(f"== {header}")
            print(report)
            if dump:
                print(f"profile stats written to {dump}")
        return 0
    if args.profile_out is not None:
        parser.error("--profile-out requires --profile")

    committed = {}
    if BENCH_PATH.exists():
        try:
            with open(BENCH_PATH) as handle:
                committed = json.load(handle)
        except ValueError as error:
            print(f"committed BENCH_perf.json is unreadable ({error}); "
                  f"treating as empty", file=sys.stderr)

    results = run_perf_suite(repeats=args.repeats)
    scaling = None if args.no_scaling else run_trip_scaling()
    print_report(results, committed, scaling)

    failures, notes = compare_to_committed(results, committed,
                                           args.tolerance)
    for note in notes:
        print(f"note: {note}")
    if scaling is not None and not scaling["outputs_identical"]:
        failures.append("parallel multi-trip sweep outputs diverged "
                        "from the serial sweep")
    if scaling is not None and not scaling.get("shared_bank_identical",
                                               True):
        failures.append("shared propagation banks diverged from "
                        "per-task banks")
    if failures:
        # Keep the committed baseline intact so re-runs still fail
        # against the good numbers instead of a ratcheted-down file.
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        print("BENCH_perf.json left untouched (regression)",
              file=sys.stderr)
        return 1
    if not args.no_write:
        path = write_bench_file(results, scaling=scaling)
        print(f"wrote {path}")
    print("perf smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
