"""Perf engine benchmark: tracked rates on pinned protocol workloads.

Not a paper figure — the engineering benchmark behind the ROADMAP's
"as fast as the hardware allows" goal.  Measures the pinned VanLAN and
DieselNet CBR workloads plus the multi-trip scaling sweep (see
``repro.experiments.perf``), writes the tracked ``BENCH_perf.json`` at
the repository root, and asserts:

* the fast paths clear the sim-rate speedup targets on both pinned
  workloads against the recorded seed baselines (4.3x VanLAN, 1.4x
  DieselNet — floors with noise headroom below the ~4.9x / ~1.8x
  committed PR 3 measurements);
* a process-pool multi-trip sweep merges to outputs identical to the
  serial sweep on any machine, and clears the 3x parallel-speedup
  target when the host actually has four free cores.
"""

import pytest

from conftest import print_table

from repro.experiments.perf import (
    TARGET_PARALLEL_SPEEDUP,
    TARGET_SPEEDUP,
    TARGET_SPEEDUP_DIESELNET,
    run_perf_suite,
    run_trip_scaling,
    write_bench_file,
)

pytestmark = pytest.mark.bench


def test_perf_engine(benchmark, save_results):
    results = benchmark.pedantic(
        lambda: run_perf_suite(repeats=2), rounds=1, iterations=1
    )
    scaling = run_trip_scaling()
    rows = [
        (r["workload"], float(r["wall_s"]), float(r["events"]),
         float(r["events_per_s"]), float(r["sim_s_per_wall_s"]),
         float(r.get("speedup_vs_baseline", 0.0)))
        for r in results
    ]
    rows.append((
        scaling["workload"], float(scaling["parallel_wall_s"]),
        float(scaling["n_trips"]), 0.0, 0.0,
        float(scaling["parallel_speedup"]),
    ))
    print_table("Perf engine: pinned workloads", rows,
                headers=["wall (s)", "events", "ev/s", "sim x real",
                         "speedup"])
    write_bench_file(results, scaling=scaling)
    save_results("perf_engine", {
        **{r["workload"]: r for r in results},
        scaling["workload"]: scaling,
    })

    by_name = {r["workload"]: r for r in results}
    vanlan = by_name["vanlan_cbr_120s"]
    host = vanlan.get("host", {})
    print(f"host: {host.get('cpu_count')} cpus, "
          f"load {host.get('loadavg_1m')}, "
          f"python {host.get('python')}, numpy {host.get('numpy')}")
    # The pinned workloads report the estimator bank's fold cost, and
    # every record carries the host-state snapshot so committed
    # numbers are attributable to a machine condition.  They always
    # run the nominal world — no fault plane — and the record pins
    # that (PR 7) so baselines cannot be confused with faulted runs.
    # Likewise the result store never serves a pinned workload (PR 8):
    # the store counters are pinned to zero so a warm-cache read can
    # never masquerade as an engine speedup.
    for record in results:
        assert 0.0 <= record["estimator_fold_s"] < record["wall_s"]
        assert record["host"]["cpu_count"] >= 1
        assert record["host"]["python"]
        assert record["faults"] == "none"
        assert record["store"] == {"hits": 0, "misses": 0,
                                   "verify_failures": 0}
        # Pinned workloads run in-process: no gateway, no service
        # queue (PR 9).  A record that grew wire-transport fields
        # would mean the bench harness started routing through the
        # HTTP layer and its numbers measured the network, not the
        # engine.
        leaked = [k for k in record
                  if "gateway" in k.lower() or "service" in k.lower()]
        assert not leaked, (
            f"pinned bench record leaked transport fields: {leaked}")
    # The tentpole acceptance bar: the sim-rate speedup targets on
    # both pinned single-process workloads against the seed baseline.
    assert vanlan["speedup_vs_baseline"] >= TARGET_SPEEDUP, (
        f"fast path too slow: {vanlan['speedup_vs_baseline']}x "
        f"< {TARGET_SPEEDUP}x"
    )
    dieselnet = by_name["dieselnet_cbr_60s"]
    assert dieselnet["speedup_vs_baseline"] >= TARGET_SPEEDUP_DIESELNET, (
        f"dieselnet too slow: {dieselnet['speedup_vs_baseline']}x "
        f"< {TARGET_SPEEDUP_DIESELNET}x"
    )
    # The parallel runner's determinism contract holds everywhere; the
    # scaling bar only binds when the host really has the cores.
    assert scaling["outputs_identical"], (
        "parallel multi-trip sweep diverged from the serial sweep"
    )
    # The scaling sweep runs with the store disabled (store=False), so
    # every store counter in its record must be zero — the recorded
    # parallel speedup measures the pool, not cache hits.
    scaling_store = scaling["store"]
    for field in ("hits", "misses", "verify_failures", "quarantined"):
        assert scaling_store[field] == 0, (
            f"scaling sweep touched the result store: {scaling_store}"
        )
    assert not any("gateway" in k.lower() or "service" in k.lower()
                   for k in scaling), (
        "scaling record leaked transport fields")
    if scaling["available_workers"] >= 4 and scaling["workers"] >= 4:
        assert scaling["parallel_speedup"] >= TARGET_PARALLEL_SPEEDUP, (
            f"multi-trip scaling too weak: {scaling['parallel_speedup']}x "
            f"< {TARGET_PARALLEL_SPEEDUP}x on "
            f"{scaling['available_workers']} cores"
        )
