"""The deterministic fault-injection plane (repro.sim.faults)."""

import pytest

from repro.core.protocol import ViFiConfig, ViFiSimulation
from repro.experiments.common import (
    run_protocol_cbr,
    run_trips,
    vanlan_protocol,
)
from repro.experiments.faulted import (
    FAULT_MATRIX,
    _faulted_task,
    fault_matrix_smoke,
)
from repro.sim.faults import FaultConfig, FaultSchedule
from repro.testbeds.vanlan import VEHICLE_ID, VanLanTestbed

BS_IDS = tuple(range(1, 6))

HEAVY = FaultConfig(
    bs_outage_rate=6.0, bs_outage_duration_s=5.0,
    partition_rate=4.0, partition_duration_s=5.0,
    latency_spike_rate=2.0, latency_spike_duration_s=3.0,
    beacon_burst_rate=2.0, beacon_burst_duration_s=1.0,
    vehicle_reset_rate=2.0, vehicle_reset_duration_s=2.0,
)


def _run_signature(faults=None, duration=25.0, seed=0, trip=0):
    testbed = VanLanTestbed(seed=0)
    sim, _ = vanlan_protocol(testbed, trip=trip, seed=seed,
                             prefill=duration + 1.0, faults=faults)
    cbr = run_protocol_cbr(sim, duration)
    return sim, (
        sim.sim.events_processed,
        sorted(cbr.up_deliveries.items()),
        sorted(cbr.down_deliveries.items()),
        sorted(sim.medium.tx_count.items()),
    )


class TestFaultSchedule:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule(HEAVY, 120.0, BS_IDS, VEHICLE_ID, seed=3)
        b = FaultSchedule(HEAVY, 120.0, BS_IDS, VEHICLE_ID, seed=3)
        assert a.events == b.events
        assert a.events  # heavy config over 2 minutes draws something

    def test_different_seed_different_schedule(self):
        a = FaultSchedule(HEAVY, 120.0, BS_IDS, VEHICLE_ID, seed=3)
        b = FaultSchedule(HEAVY, 120.0, BS_IDS, VEHICLE_ID, seed=4)
        assert a.events != b.events

    def test_zero_rates_draw_nothing(self):
        sched = FaultSchedule(FaultConfig(), 600.0, BS_IDS, VEHICLE_ID,
                              seed=0)
        assert sched.events == ()

    def test_events_ordered_and_bounded(self):
        sched = FaultSchedule(HEAVY, 60.0, BS_IDS, VEHICLE_ID, seed=1)
        starts = [e.start for e in sched.events]
        assert starts == sorted(starts)
        for event in sched.events:
            assert 0.0 <= event.start < event.end <= 60.0

    def test_per_target_windows_never_overlap(self):
        sched = FaultSchedule(HEAVY, 300.0, BS_IDS, VEHICLE_ID, seed=2)
        by_target = {}
        for event in sched.events:
            by_target.setdefault((event.kind, event.target),
                                 []).append(event)
        for events in by_target.values():
            for earlier, later in zip(events, events[1:]):
                assert earlier.end <= later.start

    def test_scaled_multiplies_rates_only(self):
        doubled = HEAVY.scaled(2.0)
        assert doubled.bs_outage_rate == HEAVY.bs_outage_rate * 2
        assert doubled.partition_rate == HEAVY.partition_rate * 2
        assert doubled.bs_outage_duration_s == HEAVY.bs_outage_duration_s
        assert not FaultConfig().scaled(5.0).any_enabled()
        with pytest.raises(ValueError):
            HEAVY.scaled(-1.0)


class TestNoFaultIdentity:
    """faults=None and zero-rate schedules must not perturb a run."""

    def test_none_vs_zero_rate_schedule_bitwise(self):
        _, base = _run_signature(faults=None)
        empty = FaultSchedule(
            FaultConfig(), 25.0,
            VanLanTestbed(seed=0).deployment.bs_ids, VEHICLE_ID, seed=0,
        )
        _, same = _run_signature(faults=empty)
        assert same == base

    def test_fault_plane_attrs_default_inert(self):
        testbed = VanLanTestbed(seed=0)
        sim, _ = vanlan_protocol(testbed, trip=0, seed=0, prefill=5.0)
        assert sim.fault_plane is None
        assert sim.vehicle.radio_down is False
        assert sim.vehicle.faults is None
        assert all(not node.radio_down
                   for node in sim.bs_nodes.values())
        assert sim.backplane.latency_multiplier == 1.0


class TestFaultedRuns:
    def test_heavy_faults_deterministic_and_graceful(self):
        testbed = VanLanTestbed(seed=0)
        signatures = []
        for _ in range(2):
            sched = FaultSchedule(HEAVY, 25.0,
                                  testbed.deployment.bs_ids,
                                  VEHICLE_ID, seed=7)
            _, sig = _run_signature(faults=sched)
            signatures.append(sig)
        assert signatures[0] == signatures[1]

    def test_faults_degrade_delivery(self):
        _, base = _run_signature(faults=None)
        testbed = VanLanTestbed(seed=0)
        sched = FaultSchedule(HEAVY, 25.0, testbed.deployment.bs_ids,
                              VEHICLE_ID, seed=7)
        sim, faulted = _run_signature(faults=sched)
        assert sim.fault_plane.injected  # something actually fired
        delivered = len(faulted[1]) + len(faulted[2])
        nominal = len(base[1]) + len(base[2])
        assert 0 < delivered < nominal

    def test_outage_suppresses_beacons_but_keeps_due_chain(self):
        """A dead BS emits nothing, yet post-outage beacon times are
        exactly the nominal schedule (jitter draws kept flowing)."""
        testbed = VanLanTestbed(seed=0)
        bs_ids = testbed.deployment.bs_ids
        victim = bs_ids[0]
        # Hand-crafted single outage window so the test is surgical.
        from repro.sim.faults import FaultEvent
        sched = FaultSchedule(FaultConfig(), 30.0, bs_ids, VEHICLE_ID,
                              seed=0)
        sched.events = (FaultEvent("bs-outage", victim, 10.0, 20.0),)

        def beacon_times(faults):
            testbed_local = VanLanTestbed(seed=0)
            sim, _ = vanlan_protocol(testbed_local, trip=0, seed=0,
                                     prefill=31.0, faults=faults)
            times = []
            node = sim.bs_nodes[victim]
            original = node._build_beacon

            def recording_build():
                # _build_beacon runs exactly once per actual emission
                # on every beacon path (slot batch, single, legacy).
                times.append(round(sim.sim.now, 9))
                return original()

            node._build_beacon = recording_build
            run_protocol_cbr(sim, 30.0)
            return times

        nominal = beacon_times(None)
        faulted = beacon_times(sched)
        assert [t for t in faulted if 10.0 <= t < 20.0] == []
        assert [t for t in nominal if t >= 20.0] \
            == [t for t in faulted if t >= 20.0]

    def test_vehicle_reset_pauses_then_resumes(self):
        testbed = VanLanTestbed(seed=0)
        from repro.sim.faults import FaultEvent
        sched = FaultSchedule(FaultConfig(), 30.0,
                              testbed.deployment.bs_ids, VEHICLE_ID,
                              seed=0)
        sched.events = (FaultEvent("vehicle-reset", VEHICLE_ID,
                                   10.0, 15.0),)
        testbed_local = VanLanTestbed(seed=0)
        sim, _ = vanlan_protocol(testbed_local, trip=0, seed=0,
                                 prefill=31.0, faults=sched)
        cbr = run_protocol_cbr(sim, 30.0)
        sent = cbr.sent_times
        late = [s for s, t in cbr.up_deliveries.items()
                if sent[s] >= 16.0]
        assert late  # service resumed after the reset
        during = [s for s, t in cbr.up_deliveries.items()
                  if 10.5 <= sent[s] <= 14.0 and t <= 15.0]
        assert during == []  # nothing delivered over a dead radio

    def test_all_bs_partitioned_still_delivers_direct(self):
        """A fully partitioned backplane only disables relays/salvage;
        direct anchor delivery keeps working."""
        testbed = VanLanTestbed(seed=0)
        bs_ids = testbed.deployment.bs_ids
        from repro.sim.faults import FaultEvent
        sched = FaultSchedule(FaultConfig(), 30.0, bs_ids, VEHICLE_ID,
                              seed=0)
        sched.events = tuple(
            FaultEvent("partition", bs, 0.0, 30.0) for bs in bs_ids
        )
        testbed_local = VanLanTestbed(seed=0)
        sim, _ = vanlan_protocol(testbed_local, trip=0, seed=0,
                                 prefill=31.0, faults=sched)
        cbr = run_protocol_cbr(sim, 30.0)
        assert cbr.delivery_rate() > 0.5
        assert sim.backplane.total_bytes() == 0


class TestFaultedSweeps:
    def test_merged_results_identical_across_worker_counts(self):
        tasks = [
            {"protocol": protocol,
             "faults": FAULT_MATRIX["bs-outage"], "trip": 0,
             "seed": seed, "duration_s": 12.0}
            for protocol in ("ViFi", "BRR") for seed in (0, 1)
        ]
        serial = run_trips(_faulted_task, tasks, workers=1)
        pooled = run_trips(_faulted_task, tasks, workers=2)
        assert list(serial) == list(pooled)

    def test_fault_matrix_smoke(self):
        results = fault_matrix_smoke(duration_s=12.0)
        assert set(results) == set(FAULT_MATRIX)
        for name, summary in results.items():
            assert summary["delivery"] > 0.0, name
        assert results["no-fault"]["injected"] == {}
        assert results["bs-outage"]["injected"].get("bs-outage", 0) > 0
        # Every faulted cell injects, and together they run every kind
        # the fault plane handles.
        injected = set()
        for name, summary in results.items():
            if name != "no-fault":
                assert summary["injected"], name
                injected.update(summary["injected"])
        assert injected == {"bs-outage", "partition", "latency-spike",
                            "beacon-burst", "vehicle-reset"}


@pytest.mark.slow
class TestGracefulDegradationTrend:
    """Acceptance: ViFi degrades more gracefully than BestBS (BRR)
    under BS outages — the delivery gap widens with fault intensity.

    Checked as a trend over seed-averaged sweep points, never as exact
    numbers."""

    def test_delivery_gap_widens_with_intensity(self):
        from repro.experiments.faulted import fault_intensity_sweep

        sweep = fault_intensity_sweep(
            intensities=(0.0, 1.0, 2.0), seeds=(0, 1),
            duration_s=60.0, workers=6,
        )
        gaps = {
            intensity: cells["ViFi"]["delivery"]
            - cells["BRR"]["delivery"]
            for intensity, cells in sweep.items()
        }
        assert gaps[1.0] > gaps[0.0]
        assert gaps[2.0] > gaps[0.0]
        # ViFi keeps an absolute edge at every point, and faults do
        # real damage to the unprotected comparator.
        for cells in sweep.values():
            assert cells["ViFi"]["delivery"] > cells["BRR"]["delivery"]
        assert sweep[2.0]["BRR"]["delivery"] \
            < sweep[0.0]["BRR"]["delivery"]
