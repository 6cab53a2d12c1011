"""Focused tests for node-internal mechanisms.

Bitmap acknowledgments, receiver de-duplication state (checked
against an ordered-dict oracle), the adaptive ack-wait window, gateway
routing, beacon decoration and slot-aligned beacon batching —
behaviours that the protocol integration tests exercise only
incidentally.
"""

import random
from collections import OrderedDict, defaultdict

import pytest

from repro.core import node as node_module
from repro.core.node import (
    RELAY_MAX_WINDOW_S,
    RELAY_MIN_AGE_S,
    RELAY_WINDOW_MULTIPLIER,
    SALVAGE_AGE_S,
    BeaconSlotter,
    _ReceiverState,
)
from repro.core.protocol import (
    GATEWAY_UPDATE_DELAY_S,
    ViFiConfig,
    ViFiSimulation,
)
from repro.net.channel import BernoulliLoss, TraceDrivenLoss
from repro.net.medium import LinkTable
from repro.net.packet import Ack, Beacon, Direction, FrameKind
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

VEHICLE = 0


def live_rows(sender):
    """Rows of *sender* that are neither acked nor retired."""
    return sum(packet is not None for packet in sender._pkt)


def acked_at_src(sim, src):
    """Packet records of *src* whose sender saw them acked."""
    return [record for record in sim.stats.packet_records.values()
            if record.pkt_key[0] == src and record.acked_at_src]


def two_bs_sim(config=None, seed=3, loss=0.0):
    table = LinkTable()
    for bs in (1, 2):
        table.set_link(VEHICLE, bs, BernoulliLoss(loss))
        table.set_link(bs, VEHICLE, BernoulliLoss(loss))
    table.set_link(1, 2, BernoulliLoss(0.0))
    table.set_link(2, 1, BernoulliLoss(0.0))
    sim = ViFiSimulation([1, 2], table, config=config or ViFiConfig(),
                         seed=seed)
    sim.start()
    return sim


class TestReceiverState:
    def test_dedup(self):
        state = _ReceiverState()
        assert state.record(5)
        assert not state.record(5)
        assert state.record(6)

    def test_bitmap_flags_missing(self):
        state = _ReceiverState()
        for pkt_id in (0, 1, 3, 5, 6, 7):
            state.record(pkt_id)
        state.record(8)
        bitmap = state.missing_bitmap(8)
        # Missing among [0..7]: 2 and 4 -> bits for 8-1-k in {2, 4}.
        missing = {8 - 1 - k for k in range(8) if bitmap & (1 << k)}
        assert missing == {2, 4}

    def test_bitmap_ignores_negative_ids(self):
        state = _ReceiverState()
        state.record(1)
        bitmap = state.missing_bitmap(1)
        missing = {1 - 1 - k for k in range(8) if bitmap & (1 << k)}
        assert missing == {0}  # ids below zero never flagged

    def test_memory_bounded(self):
        state = _ReceiverState()
        for pkt_id in range(2000):
            state.record(pkt_id)
        # Old ids forgotten; re-recording an ancient id looks fresh.
        assert state.record(0)


class TestAckFrames:
    def test_missing_ids_roundtrip(self):
        # A receiver missing 9 and 7 acks 10 with bits k = 10 - 1 - id.
        state = _ReceiverState()
        for pkt_id in (0, 1, 2, 3, 4, 5, 6, 8, 10):
            state.record(pkt_id)
        ack = Ack(pkt_id=10, acker=1, for_src=0,
                  missing_bitmap=state.missing_bitmap(10))
        assert ack.missing_bitmap == 0b101
        missing = {10 - 1 - k for k in range(8)
                   if ack.missing_bitmap & (1 << k)}
        assert missing == {9, 7}

    def test_beacon_size_grows_with_reports(self):
        empty = Beacon(sender=1)
        full = Beacon(sender=1, incoming={2: 0.5, 3: 0.4},
                      learned={4: 0.3})
        assert full.size_bytes > empty.size_bytes


class TestBitmapRecovery:
    def test_bitmap_retires_earlier_packets(self):
        """An ack whose bitmap shows earlier ids as received must
        retire them at the sender without retransmission."""
        sim = two_bs_sim()
        sim.run(until=8.0)
        sender = sim.vehicle.upstream
        for seq in range(5):
            sim.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
        sim.run(until=12.0)
        # Clean link: everything acked and forgotten.
        assert live_rows(sender) == 0
        assert len(acked_at_src(sim, VEHICLE)) == 5


class TestSenderBacklog:
    def test_1k_backlog_drains_without_quadratic_rescans(self):
        """PR 6 satellite: a 1000-packet burst drains cleanly.

        The sender's transmit FIFO drops completed entries lazily
        (tombstones) instead of ``deque.remove``-ing per ack, and the
        dead column prefix is compacted periodically — so a deep
        backlog costs O(1) amortized per packet, and the columns do
        not grow with lifetime throughput.
        """
        sim = two_bs_sim()
        sim.run(until=8.0)
        sender = sim.vehicle.upstream
        for seq in range(1000):
            sim.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
        assert live_rows(sender) == 1000
        sim.run(until=40.0)
        # Clean link: the whole backlog delivered and forgotten.
        assert len(acked_at_src(sim, VEHICLE)) == 1000
        assert live_rows(sender) == 0
        # The transmit FIFO drained by lazy head-drops, and every
        # completion was counted towards the next periodic compaction
        # (which fires every 4096 — exercised directly below).
        assert len(sender.queue) == 0
        assert sender._done_since_compact == 1000
        # Force the periodic compaction and check it slices the dead
        # prefix off every column in one pass.
        sender._compact()
        assert sender._base == 1000
        assert len(sender._pkt) == 0


class TestAdaptiveWindow:
    def test_window_clamped(self):
        sim = two_bs_sim()
        node = sim.bs_nodes[1]
        # No samples yet: initial value times multiplier, clamped.
        assert RELAY_MIN_AGE_S <= node._ack_window() <= RELAY_MAX_WINDOW_S
        for _ in range(50):
            node._ack_gap.add_sample(1.0)  # absurd gaps
        assert node._ack_window() == RELAY_MAX_WINDOW_S
        node2 = sim.bs_nodes[2]
        for _ in range(50):
            node2._ack_gap.add_sample(0.0)
        # The timer floors samples at RELAY_MIN_AGE_S before the safety
        # multiplier, so the effective minimum is multiplier x floor.
        expected = RELAY_MIN_AGE_S * RELAY_WINDOW_MULTIPLIER
        assert node2._ack_window() == pytest.approx(expected)


class TestGateway:
    def test_downstream_buffered_until_anchor_known(self):
        sim = two_bs_sim()
        # Before any beacons, the gateway has no anchor belief.
        sim.send_downstream("early", 200, flow_id=9, seq=0)
        assert sim.gateway.anchor_belief is None
        got = []
        sim.set_downstream_sink(lambda p, t: got.append(p.flow_id))
        sim.run(until=10.0)
        assert sim.gateway.anchor_belief is not None
        assert 9 in got  # the buffered packet flushed on first update

    def test_belief_lags_anchor_change(self):
        """The gateway follows each anchor change exactly
        GATEWAY_UPDATE_DELAY_S late, and routes to the old anchor
        until then.

        BS 1 serves the first 10 s and then dies; BS 2 takes over.  A
        downstream packet injected halfway through the lag after the
        switch still reaches BS 1.
        """
        table = LinkTable()
        for bs, profile in ((1, [0.0] * 10 + [1.0] * 20),
                            (2, [0.9] * 10 + [0.0] * 20)):
            table.set_link(VEHICLE, bs, TraceDrivenLoss(profile))
            table.set_link(bs, VEHICLE, TraceDrivenLoss(profile))
        table.set_link(1, 2, BernoulliLoss(0.0))
        table.set_link(2, 1, BernoulliLoss(0.0))
        sim = ViFiSimulation([1, 2], table, config=ViFiConfig(), seed=3)
        gateway = sim.gateway
        changes, beliefs, routed = [], [], []
        follow = gateway.on_anchor_change
        update = gateway._update_belief

        def on_anchor_change(new_anchor):
            follow(new_anchor)
            if changes:
                # Scheduled after the belief update, so without a lag
                # the probe would follow the update.
                sim.sim.schedule_fire(GATEWAY_UPDATE_DELAY_S / 2,
                                      sim.send_downstream, "probe", 200)
            changes.append((sim.sim.now, new_anchor))

        def update_belief(new_anchor):
            beliefs.append((sim.sim.now, new_anchor))
            update(new_anchor)

        gateway.on_anchor_change = on_anchor_change
        gateway._update_belief = update_belief
        for bs, node in sim.bs_nodes.items():
            def on_internet_packet(payload, *args, bs=bs,
                                   accept=node.on_internet_packet,
                                   **kwargs):
                routed.append((payload, bs))
                return accept(payload, *args, **kwargs)
            node.on_internet_packet = on_internet_packet
        sim.run(until=20.0)
        assert [anchor for _, anchor in changes] == [1, 2]
        assert beliefs == [(t + GATEWAY_UPDATE_DELAY_S, anchor)
                           for t, anchor in changes]
        assert routed[0] == ("probe", 1)


class TestBeaconDecoration:
    def test_vehicle_beacons_carry_designations(self):
        sim = two_bs_sim()
        sim.run(until=8.0)
        beacon = Beacon(sender=VEHICLE)
        sim.vehicle.decorate_beacon(beacon)
        assert beacon.anchor_id == sim.vehicle.anchor_id
        assert beacon.anchor_id not in beacon.aux_ids

    def test_bs_beacons_carry_no_designations(self):
        sim = two_bs_sim()
        sim.run(until=8.0)
        beacon = Beacon(sender=1)
        sim.bs_nodes[1].decorate_beacon(beacon)
        assert beacon.anchor_id is None
        assert beacon.aux_ids == ()

    def test_bs_tracks_vehicle_designations(self):
        sim = two_bs_sim()
        sim.run(until=8.0)
        anchor = sim.vehicle.anchor_id
        other = 2 if anchor == 1 else 1
        assert sim.bs_nodes[anchor].known_anchor == anchor
        assert sim.bs_nodes[other].known_anchor == anchor
        assert sim.bs_nodes[other].is_designated_aux()


def _hold_anchor_belief(monkeypatch):
    """A BS made the anchor by hand hears no vehicle beacon over a dead
    link, so its anchor belief must outlast the run."""
    monkeypatch.setattr(node_module, "ANCHOR_BELIEF_TIMEOUT_S", 60.0)


class TestRetiredSalvagePool:
    def test_given_up_packets_salvageable(self, monkeypatch):
        _hold_anchor_belief(monkeypatch)
        config = ViFiConfig(max_retx=0, relay_enabled=False)
        sim = two_bs_sim(config=config, loss=1.0, seed=5)
        # Force BS 1 to act as anchor manually (no beacons get through).
        node = sim.bs_nodes[1]
        node.is_anchor = True
        node.vehicle_id = VEHICLE
        node.last_vehicle_beacon = 0.0
        sim.run(until=1.0)
        node.on_internet_packet("p", 300, flow_id=1, seq=0)
        sim.run(until=2.5)
        harvest = node.downstream.unacked_within(60.0)
        assert len(harvest) == 1
        # A second harvest finds nothing (transfer of ownership).
        assert node.downstream.unacked_within(60.0) == []

    def test_salvage_pool_keeps_only_salvageable_packets(self, monkeypatch):
        """A parked packet older than the salvage age can never be
        harvested, so a give-up drops it: with give-ups and no salvage
        request, no packet in the pool is older than SALVAGE_AGE_S at
        any give-up."""
        _hold_anchor_belief(monkeypatch)
        config = ViFiConfig(max_retx=0, relay_enabled=False)
        sim = two_bs_sim(config=config, loss=1.0, seed=5)
        node = sim.bs_nodes[1]
        node.is_anchor = True
        node.vehicle_id = VEHICLE
        node.last_vehicle_beacon = 0.0
        pool = node.downstream
        oldest = []
        on_give_up = sim.stats.on_give_up

        def checked_give_up(pkt_key):
            now = sim.sim.now
            oldest.append(max((now - arrival
                               for _, arrival in pool._retired.values()),
                              default=0.0))
            on_give_up(pkt_key)

        sim.stats.on_give_up = checked_give_up
        sim.run(until=1.0)
        for seq in range(50):
            sim.sim.schedule_at(1.0 + 0.1 * seq, node.on_internet_packet,
                                "p", 300, 1, seq)
        sim.run(until=8.0)
        assert sim.stats.salvage_requests == 0
        assert len(oldest) == 50
        assert max(oldest) <= SALVAGE_AGE_S
        assert 0 < len(pool._retired) < 50

    def test_senders_no_salvage_reaches_keep_no_given_up_packet(self):
        """Only a basestation's downstream sender with salvaging on
        parks given-up packets for a salvage request: the vehicle's
        upstream sender never receives one, and under BRR (salvaging
        off) no basestation does either."""
        for config in (ViFiConfig(max_retx=0),
                       ViFiConfig(max_retx=0).brr_variant()):
            sim = two_bs_sim(config=config, loss=0.4, seed=5)
            sim.run(until=8.0)
            for seq in range(100):
                sim.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
                sim.send_downstream(("d", seq), 200, flow_id=2, seq=seq)
            sim.run(until=30.0)
            given_up = {record.direction
                        for record in sim.stats.packet_records.values()
                        if record.given_up}
            assert given_up == {Direction.UPSTREAM, Direction.DOWNSTREAM}
            assert sim.vehicle.upstream._retired == {}
            if not config.salvage_enabled:
                for node in sim.bs_nodes.values():
                    assert node.downstream._retired == {}


# ----------------------------------------------------------------------
# Slot-aligned beacon batching
# ----------------------------------------------------------------------

class _StubBeaconNode:
    """Minimal slotter client: replays a jittered nominal due chain."""

    def __init__(self, node_id, phase, interval, rng):
        self.node_id = node_id
        self.interval = interval
        self.rng = rng
        self.due_chain = [phase]

    def _beacon_blocked(self):
        return False

    def _build_beacon(self):
        return ("beacon", self.node_id)

    def _next_beacon_due(self, due):
        jitter = self.rng.uniform(-0.05, 0.05) * self.interval
        next_due = due + max(self.interval + jitter, 1e-4)
        self.due_chain.append(next_due)
        return next_due


class _RecordingMedium:
    """Fake medium: records when each node's beacons were handed over."""

    def __init__(self, sim):
        self.sim = sim
        self.emissions = defaultdict(list)
        self.batches = 0

    def send(self, node_id, frame):
        self.emissions[node_id].append(self.sim.now)

    def send_slot_batch(self, entries):
        self.batches += 1
        for node_id, frame in entries:
            self.send(node_id, frame)


class TestBeaconSlotter:
    SLOT = BeaconSlotter.SLOT_S
    INTERVAL = 0.1
    HORIZON = 30.0

    def _run_slotted(self, n_nodes=8, seed=5):
        sim = Simulator()
        medium = _RecordingMedium(sim)
        slotter = BeaconSlotter(sim, medium)
        rngs = RngRegistry(seed)
        nodes = [
            _StubBeaconNode(i, 0.01 + 0.011 * i, self.INTERVAL,
                            rngs.stream("jitter", i))
            for i in range(n_nodes)
        ]
        for node in nodes:
            slotter.add(node, node.due_chain[0])
        sim.run(until=self.HORIZON)
        return nodes, medium

    def _legacy_dues(self, n_nodes=8, seed=5):
        """The due chain per-node timers would produce (same draws)."""
        rngs = RngRegistry(seed)
        chains = []
        for i in range(n_nodes):
            rng = rngs.stream("jitter", i)
            due = 0.01 + 0.011 * i
            chain = [due]
            while due <= self.HORIZON:
                jitter = rng.uniform(-0.05, 0.05) * self.INTERVAL
                due = due + max(self.INTERVAL + jitter, 1e-4)
                chain.append(due)
            chains.append(chain)
        return chains

    def test_due_chain_matches_legacy_timers(self):
        """Nominal dues — the estimator's denominators — are unchanged."""
        nodes, _ = self._run_slotted()
        legacy = self._legacy_dues()
        for node, chain in zip(nodes, legacy):
            n = min(len(node.due_chain), len(chain))
            assert node.due_chain[:n] == pytest.approx(chain[:n],
                                                       abs=0.0)

    def test_emissions_at_most_one_slot_late(self):
        nodes, medium = self._run_slotted()
        for node in nodes:
            for due, emitted in zip(node.due_chain,
                                    medium.emissions[node.node_id]):
                assert due - 1e-9 <= emitted <= due + self.SLOT + 1e-9
                # Slot alignment: emissions land on slot boundaries.
                slots = emitted / self.SLOT
                assert abs(slots - round(slots)) < 1e-6

    def test_per_second_counts_preserved(self):
        """Per-slot beacon counts shift by at most the boundary crossers."""
        nodes, medium = self._run_slotted()
        for node in nodes:
            emitted = [t for t in medium.emissions[node.node_id]
                       if t < self.HORIZON]
            dues = [t for t in node.due_chain if t < self.HORIZON]
            assert len(emitted) in (len(dues), len(dues) - 1)
            for second in range(int(self.HORIZON)):
                due_count = sum(1 for t in dues
                                if second <= t < second + 1)
                emit_count = sum(1 for t in emitted
                                 if second <= t < second + 1)
                assert abs(due_count - emit_count) <= 1

    def test_later_registration_with_earlier_phase_not_delayed(self):
        """A node registered after the slotter armed still emits its
        first beacon within one slot of its due time (regression: the
        first-armed slot used to gate every later registrant)."""
        sim = Simulator()
        medium = _RecordingMedium(sim)
        slotter = BeaconSlotter(sim, medium)
        rngs = RngRegistry(3)
        late_phase_first = _StubBeaconNode(1, 0.09, self.INTERVAL,
                                           rngs.stream("a"))
        early_phase_second = _StubBeaconNode(2, 0.005, self.INTERVAL,
                                             rngs.stream("b"))
        slotter.add(late_phase_first, 0.09)
        slotter.add(early_phase_second, 0.005)
        sim.run(until=2.0)
        assert medium.emissions[2][0] <= 0.005 + self.SLOT + 1e-9
        for node in (late_phase_first, early_phase_second):
            for due, emitted in zip(node.due_chain,
                                    medium.emissions[node.node_id]):
                assert due - 1e-9 <= emitted <= due + self.SLOT + 1e-9

    def test_batches_share_events(self):
        """One heap event serves every beacon due in a slot."""
        sim = Simulator()
        medium = _RecordingMedium(sim)
        slotter = BeaconSlotter(sim, medium)
        rngs = RngRegistry(0)
        nodes = [
            _StubBeaconNode(i, 0.001 * (i + 1), self.INTERVAL,
                            rngs.stream("j", i))
            for i in range(10)
        ]
        for node in nodes:
            slotter.add(node, node.due_chain[0])
        sim.run(until=1.0)
        emitted = sum(len(times) for times in medium.emissions.values())
        # All ten first beacons were due inside one slot; every batch
        # of co-slotted beacons costs one event, so far fewer events
        # than beacons were processed.
        assert emitted >= 100
        assert medium.batches >= 1
        assert sim.events_processed <= emitted / 2


class _OrderedDictReceiverReference:
    """The ordered-dict receiver state the ring replaced, as an oracle."""

    def __init__(self, memory=512):
        self.memory = memory
        self._received = OrderedDict()

    def record(self, pkt_id):
        fresh = pkt_id not in self._received
        self._received[pkt_id] = True
        self._received.move_to_end(pkt_id)
        while len(self._received) > self.memory:
            self._received.popitem(last=False)
        return fresh

    def missing_bitmap(self, pkt_id):
        bitmap = 0
        for k in range(8):
            candidate = pkt_id - 1 - k
            if candidate >= 0 and candidate not in self._received:
                bitmap |= 1 << k
        return bitmap


class TestReceiverStateRing:
    def test_matches_reference_on_protocol_like_sequences(self):
        """Ring+set == ordered-dict oracle over realistic id streams.

        Ids mostly increase with local reordering and duplicates —
        the pattern retransmissions and relays produce.  (The two
        structures only diverge when a duplicate arrives more than the
        memory depth late, which cannot happen within the 8-slot
        bitmap / retransmission horizons.)
        """
        rng = random.Random(42)
        state = _ReceiverState()
        reference = _OrderedDictReceiverReference()
        next_id = 0
        window = []
        for _ in range(5000):
            if window and rng.random() < 0.3:
                pkt_id = rng.choice(window)  # duplicate / reordered
            else:
                pkt_id = next_id
                next_id += 1
                window.append(pkt_id)
                if len(window) > 32:
                    window.pop(0)
            assert state.record(pkt_id) == reference.record(pkt_id)
            probe = max(pkt_id, 8)
            assert state.missing_bitmap(probe) == \
                reference.missing_bitmap(probe)

    def test_memory_bounded(self):
        state = _ReceiverState()
        for pkt_id in range(3000):
            state.record(pkt_id)
        assert state.record(0)  # ancient id forgotten
        assert not state.record(2999)
