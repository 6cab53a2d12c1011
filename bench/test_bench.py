"""Tests of the benchmark itself; run by explicit path::

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

They sit outside the tier-1 ``testpaths``.  The end-to-end case spawns
the real command once (about 45 s); the rest run in-process.
"""

import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_of_module  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _cbr_trip(seconds):
    """Build a VanLAN CBR trip, run *seconds* of it, return its summary."""
    from repro.experiments.common import run_protocol_cbr, vanlan_protocol
    from repro.testbeds.vanlan import VanLanTestbed

    sim, _ = vanlan_protocol(VanLanTestbed(seed=0), 0, seed=0,
                             prefill=seconds + 1.0)
    cbr = run_protocol_cbr(sim, seconds)
    return workloads._stream_summary("trip0", sim, cbr)


def test_spec_names_and_caps():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert all(set(w) == {"name", "why"} for w in spec["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_command_prints_every_metric_with_valid_names():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vanlan_cbr",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = _spec()
    expected = {f"vanlan_cbr.{m['name']}"
                for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}
    for line in out.stdout.splitlines()[:-1]:
        if line.startswith("  ") and not line.startswith("  FAIL"):
            assert NAME.fullmatch(line.split()[0]), line


def test_tracer_leaves_the_realization_bit_identical():
    untraced = _cbr_trip(20.0)
    with Tracer():
        traced = _cbr_trip(20.0)
    assert traced["digest"] == untraced["digest"]
    assert traced["counters"]["events"] == untraced["counters"]["events"]


def test_self_times_cover_the_traced_wall():
    from repro.experiments.common import run_protocol_cbr, vanlan_protocol
    from repro.testbeds.vanlan import VanLanTestbed

    with Tracer() as tracer:
        sim, _ = vanlan_protocol(VanLanTestbed(seed=0), 0, seed=0,
                                 prefill=21.0)
        before, start = tracer.attributed_s, time.perf_counter()
        run_protocol_cbr(sim, 20.0)
        wall = time.perf_counter() - start
        attributed = tracer.attributed_s - before
    assert 0.95 * wall <= attributed <= wall
    layers = tracer.layers()
    assert sum(row["self_s"] for row in layers.values()) \
        == pytest.approx(tracer.attributed_s, rel=1e-9)
    assert {"sim.engine", "net.medium", "net.channel", "core.node",
            "core.probabilities", "core.stats", "apps"} <= set(layers)


def test_relaying_callback_is_charged_to_core_relaying():
    from repro.core.relaying import RelayContext, ViFiRelayStrategy
    from repro.sim.engine import Simulator

    with Tracer() as tracer:
        sim = Simulator()
        context = RelayContext(self_id=1, aux_ids=(1,), src=0, dst=2,
                               p=lambda a, b: 0.5)
        sim.schedule(0.1, ViFiRelayStrategy().relay_probability, context)
        sim.run()
    record = tracer.records["@ViFiRelayStrategy.relay_probability"]
    assert record["sim.engine"][0] == 1
    edges = {(e["caller"], e["callee"]): e for e in tracer.edges()}
    assert edges[("sim.engine", "core.relaying")]["count"] == 1
    assert layer_of_module("repro.core.relaying") == "core.relaying"
    assert layer_of_module("repro.core.protocol") == "core.node"
    assert layer_of_module("repro.apps.tcp") == "apps"


def test_corrected_scales_wall_time_by_probe_speed():
    ref = hostspeed.REF_PROBE_S
    at_ref = [[t, ref] for t in (1.0, 2.0, 3.0)]
    assert hostspeed.corrected(at_ref, 0.0, 4.0) == pytest.approx(4.0)
    # Half the interval at half speed: three quarters of the wall.
    mixed = [[1.0, ref], [3.0, 2 * ref]]
    assert hostspeed.corrected(mixed, 0.0, 4.0) == pytest.approx(3.0)
    # No probe inside: the nearest one stands in.
    assert hostspeed.corrected(mixed, 3.5, 4.5) == pytest.approx(0.5)


def test_sampler_records_probes_until_stopped():
    assert hostspeed.start()
    assert not hostspeed.start()
    deadline = time.monotonic() + 0.5
    while time.monotonic() < deadline:
        pass
    samples = hostspeed.stop()
    assert len(samples) >= 5
    assert all(d > 0 for _, d in samples)
    assert hostspeed.drain() == []


def test_forced_check_failure_counts_in_failed_frac(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "VANLAN_TRIPS", (0,))
    clean = workloads.run_workload("vanlan_cbr", seed=0)
    assert run._unit_failures("vanlan_cbr", [clean])[:2] == (1, 0)
    # No efficiency can beat the oracle by more than 1: every relaying
    # unit now fails its PerfectRelay check.
    monkeypatch.setattr(workloads, "PERFECT_RELAY_EPS", -1.0)
    forced = workloads.run_workload("vanlan_cbr", seed=0)
    attempted, failed, lines = run._unit_failures(
        "vanlan_cbr", [forced, {"error": "exit code 1"}])
    assert (attempted, failed) == (1 + workloads.unit_count("vanlan_cbr"),
                                   1 + workloads.unit_count("vanlan_cbr"))
    assert any(line.startswith("vanlan_cbr trip0: perfect_relay_")
               for line in lines)
    run._print_failures({"failed": failed, "attempted": attempted,
                         "failures": lines})
    printed = capsys.readouterr().out
    assert "failed_frac  fraction      1.0000" in printed
    assert "FAIL vanlan_cbr trip0: perfect_relay_" in printed
