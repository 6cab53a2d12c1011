"""Cross-module integration tests: full pipelines at reduced scale.

These stitch the layers together the way the benchmarks do — testbed ->
traces -> policies, and testbed -> link table -> protocol -> apps — and
check the paper's qualitative relationships hold end to end.  The
realization anchor at the bottom pins the exact default-path output of
two anchored runs: 120 s of VanLAN trip 0 and 60 s of DieselNet day 0.
Further pins cover the probe traces, whose steered chains flip their
own coins through :func:`~repro.net.channel.steered_losses` instead of
serving the medium, and the DieselNet beacon log that Table 2 and
Figures 10-11 read.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.apps.voip import VoipStream
from repro.apps.workload import FlowRouter
from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    dieselnet_protocol,
    run_protocol_cbr,
    vanlan_protocol,
)
from repro.handoff.evaluator import evaluate_policy
from repro.handoff.policies import AllBsesPolicy, BrrPolicy, StickyPolicy
from repro.sim.rng import RngRegistry
from repro.testbeds.dieselnet import DieselNetTestbed
from repro.testbeds.traces import BeaconLog
from repro.testbeds.vanlan import VanLanTestbed


@pytest.fixture(scope="module")
def vanlan():
    return VanLanTestbed(seed=31)


@pytest.fixture(scope="module")
def trace(vanlan):
    return vanlan.generate_probe_trace(0)


class TestTraceDrivenStudy:
    def test_allbses_dominates_every_hard_policy(self, trace):
        all_bs = evaluate_policy(trace, AllBsesPolicy())
        for policy in (BrrPolicy(), StickyPolicy()):
            hard = evaluate_policy(trace, policy)
            assert all_bs.packets_delivered >= hard.packets_delivered

    def test_allbses_is_union_upper_bound(self, trace):
        """AllBSes delivery equals the union over BS columns."""
        outcome = evaluate_policy(trace, AllBsesPolicy())
        n = outcome.n_slots
        assert np.array_equal(outcome.up_delivered,
                              trace.up[:n].any(axis=1))
        assert np.array_equal(outcome.down_delivered,
                              trace.down[:n].any(axis=1))

    def test_hard_policy_bounded_by_allbses_everywhere(self, trace):
        brr = evaluate_policy(trace, BrrPolicy())
        oracle = evaluate_policy(trace, AllBsesPolicy())
        assert not (brr.up_delivered & ~oracle.up_delivered).any()
        assert not (brr.down_delivered & ~oracle.down_delivered).any()


class TestProtocolOverTestbed:
    def test_vifi_delivery_beats_brr_on_same_trip(self, vanlan):
        rates = {}
        base = ViFiConfig()
        for name, config in (("ViFi", base), ("BRR", base.brr_variant())):
            sim, duration = vanlan_protocol(vanlan, trip=0, config=config,
                                            seed=13)
            cbr = run_protocol_cbr(sim, min(duration, 120.0))
            rates[name] = cbr.delivery_rate()
        assert rates["ViFi"] > rates["BRR"]

    def test_protocol_statistics_consistent(self, vanlan):
        sim, duration = vanlan_protocol(vanlan, trip=0, seed=13)
        run_protocol_cbr(sim, min(duration, 90.0))
        stats = sim.stats
        # Every relayed delivery implies a relay decision happened.
        relays = sum(1 for d in stats.relay_decisions if d[3])
        relayed_deliveries = sum(
            p.relay_delivered for p in stats.packet_records.values()
        )
        assert relayed_deliveries <= relays
        # Delivered packets have a first-receive timestamp.
        for record in stats.packet_records.values():
            if record.delivered:
                assert record.first_dst_receive is not None

    def test_medium_accounting_matches_stats(self, vanlan):
        from repro.net.packet import Direction
        sim, duration = vanlan_protocol(vanlan, trip=0, seed=13)
        run_protocol_cbr(sim, min(duration, 90.0))
        up_tx_medium = sim.wireless_data_tx(Direction.UPSTREAM)
        up_tx_stats = sum(
            1 for t in sim.stats.tx_records.values()
            if t.direction == Direction.UPSTREAM
        )
        # The medium sees every vehicle source transmission (no relays
        # originate at the vehicle).
        assert up_tx_medium == up_tx_stats


class TestDieselNetPipeline:
    def test_trace_driven_voip_runs_both_modes(self):
        testbed = DieselNetTestbed(channel=1, seed=31)
        log = testbed.generate_beacon_log(0)
        for bursty in (False, True):
            rngs = RngRegistry(3).spawn("mode", bursty)
            sim, duration = dieselnet_protocol(log, rngs, seed=5,
                                               bursty=bursty)
            router = FlowRouter(sim)
            stream = VoipStream(sim, router)
            stream.start(3.0)
            stream.stop(60.0)
            sim.run(until=63.0)
            assert stream.window_quality()

    def test_unreachable_interbs_pairs_respected(self):
        """Pairs never co-visible must never exchange frames.

        BSes 1 and 3 are never heard in the same second, while 1-2 and
        2-3 are, so only the 1-3 pair is unreachable.
        """
        log = BeaconLog([1, 2, 3],
                        [[10, 5, 0], [0, 6, 7], [8, 0, 0], [0, 0, 9]],
                        expected=10)
        assert log.covisibility().tolist() == [
            [True, True, False], [True, True, True], [False, True, True]]
        sim, _ = dieselnet_protocol(log, RngRegistry(3).spawn("covis"),
                                    seed=5)
        heard = set()
        for bs, node in sim.bs_nodes.items():
            def record(frame, transmitter_id, bs=bs,
                       receive=node.on_receive):
                heard.add((transmitter_id, bs))
                receive(frame, transmitter_id)
            node.on_receive = record
        links = sim.medium.links
        for t in (0.0, 2.5, 8.0):
            assert 3 not in [dst for dst, _ in links.in_range(1, t)]
            assert 1 not in [dst for dst, _ in links.in_range(3, t)]
        sim.run(until=8.0)
        # BS beacons do cross the co-visible pairs ...
        assert heard & {(1, 2), (2, 1), (2, 3), (3, 2)}
        # ... and never the unreachable one.
        assert not heard & {(1, 3), (3, 1)}


#: The realization anchor: event count and sha256 signature of each
#: anchored run (:data:`_ANCHOR_BUILDERS`) on the stock config.  Any
#: change to the default simulation path that moves an RNG draw, an
#: event or a delivery breaks it; a change that should move the
#: realization re-pins it here, with the reason in the commit.  Both
#: pin the per-frame resolve: every frame takes its thresholds from
#: ``loss_eps_window`` and its uniforms from the medium's outcome
#: buffer.
REALIZATION_ANCHORS = {
    "vanlan_cbr_120s": (
        36354,
        "74aae3e14cdcd8f2073a73dc43be4a5b554a8679c203e6c45474def052efcae6",
    ),
    "dieselnet_cbr_60s": (
        18478,
        "55467f3d37ba91fc286b3322bcea14b26729b3dd1a7d0ae4386a7a5978394dfd",
    ),
}


def _build_vanlan_anchor():
    sim, _ = vanlan_protocol(VanLanTestbed(seed=0), trip=0, seed=0)
    return sim, 120.0


def _build_dieselnet_anchor():
    log = DieselNetTestbed(channel=1, seed=0).generate_beacon_log(0)
    sim, duration = dieselnet_protocol(
        log, RngRegistry(0).spawn("perf"), seed=0, bursty=True
    )
    return sim, min(duration, 60.0)


#: Anchored run -> builder returning ``(simulation, duration_s)``.
_ANCHOR_BUILDERS = {
    "vanlan_cbr_120s": _build_vanlan_anchor,
    "dieselnet_cbr_60s": _build_dieselnet_anchor,
}


class TestRealizationAnchor:
    @pytest.mark.parametrize("workload", list(_ANCHOR_BUILDERS))
    def test_default_realization_is_pinned(self, workload):
        sim, duration = _ANCHOR_BUILDERS[workload]()
        cbr = run_protocol_cbr(sim, duration)
        signature = json.dumps({
            "up": sorted(cbr.up_deliveries.items()),
            "down": sorted(cbr.down_deliveries.items()),
            "tx": sorted(sim.medium.tx_count.items()),
            "delivered": sorted(sim.medium.delivered_count.items()),
        }, sort_keys=True, default=str)
        events, digest = REALIZATION_ANCHORS[workload]
        assert sim.sim.events_processed == events
        assert hashlib.sha256(signature.encode()).hexdigest() == digest


#: sha256 over ``up``, ``down`` and ``positions`` of
#: ``VanLanTestbed(seed=42).generate_probe_trace(0, max_seconds=60)``:
#: which probes were decoded, and where.
PROBE_TRACE_ANCHOR = \
    "150e033c666a49cf8c0425be848c2951eb46c042724d58988ad61e9bd5095bd5"

#: sha256 over the same trace's ``rssi``.  It is pinned apart from the
#: outcomes because it records the radio model's float values, so a
#: change to how the model is evaluated can move its last bits without
#: moving a decoded probe.
PROBE_TRACE_RSSI_ANCHOR = \
    "c3dd67d1a6d6f10ce356c50009fc7f22f90017d0ebfe33527b3ee38090c299af"

#: sha256 over the ``heard`` counts of
#: ``DieselNetTestbed(channel=1, seed=2).generate_beacon_log(0)``, the
#: log Table 2, Figure 10 and Figure 11's channel 1 read.
BEACON_LOG_ANCHOR = \
    "853418b1620689c3eff528ca05d1e679a4571f2c767267d5fbac80204dcd927c"


@pytest.fixture(scope="module")
def anchored_trace():
    return VanLanTestbed(seed=42).generate_probe_trace(0, max_seconds=60)


class TestProbeTraceAnchor:
    def test_probe_trace_realization_is_pinned(self, anchored_trace):
        """The ``steered_losses`` path: scalar holding-time draws
        interleaved with the coins on each chain's stream."""
        trace = anchored_trace
        blob = trace.up.tobytes() + trace.down.tobytes() \
            + trace.positions.tobytes()
        assert hashlib.sha256(blob).hexdigest() == PROBE_TRACE_ANCHOR

    def test_probe_trace_rssi_is_pinned(self, anchored_trace):
        digest = hashlib.sha256(anchored_trace.rssi.tobytes()).hexdigest()
        assert digest == PROBE_TRACE_RSSI_ANCHOR


class TestBeaconLogAnchor:
    def test_beacon_log_is_pinned(self):
        """One binomial draw per second and BS, from the link's
        reception probability at the second's midpoint."""
        log = DieselNetTestbed(channel=1, seed=2).generate_beacon_log(0)
        digest = hashlib.sha256(log.heard.tobytes()).hexdigest()
        assert digest == BEACON_LOG_ANCHOR
