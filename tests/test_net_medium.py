"""Unit tests for the wireless medium and the backplane.

Besides the basic send/receive/account behaviour, these cover
merged and slot-batched transmissions, check the vectorized resolve
bit for bit against a per-row scalar reference, and pin the
backoff-freezing CSMA's per-sender FIFO, the interval pre-draw plane's
boundaries, and the reachability index that culls unreachable links.
"""

import copy
import math

import pytest

from repro.core.protocol import ViFiConfig
from repro.experiments.common import run_protocol_cbr, vanlan_protocol
from repro.net.backplane import Backplane
from repro.net.channel import BernoulliLoss, TraceDrivenLoss
from repro.net.medium import LinkTable, MediumObserver, WirelessMedium
from repro.net.packet import Ack, DataPacket, Direction
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.testbeds.vanlan import VanLanTestbed


class Node:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []
        self.completed = []

    def on_receive(self, frame, transmitter_id):
        self.received.append((frame, transmitter_id))

    def on_transmit_complete(self, frame):
        self.completed.append(frame)


def _setup(loss=0.0, n_nodes=3):
    sim = Simulator()
    rngs = RngRegistry(5)
    table = LinkTable()
    nodes = [Node(i) for i in range(n_nodes)]
    for a in range(n_nodes):
        for b in range(n_nodes):
            if a != b:
                table.set_link(a, b, BernoulliLoss(
                    loss, rngs.stream("l", a, b)))
    medium = WirelessMedium(sim, table, rngs.stream("m"))
    for node in nodes:
        medium.attach(node)
    return sim, medium, nodes


def _packet(src, dst, pkt_id=0, size=500):
    return DataPacket(pkt_id=pkt_id, src=src, dst=dst,
                      direction=Direction.UPSTREAM, size_bytes=size)


class TestWirelessMedium:
    def test_broadcast_reaches_all_reachable_nodes(self):
        sim, medium, nodes = _setup(loss=0.0)
        medium.send(0, _packet(0, 1))
        sim.run(until=1.0)
        assert len(nodes[1].received) == 1
        assert len(nodes[2].received) == 1  # overhearing
        assert len(nodes[0].received) == 0  # not self

    def test_unreachable_pairs_never_deliver(self):
        sim = Simulator()
        rngs = RngRegistry(5)
        table = LinkTable()
        nodes = [Node(0), Node(1)]
        medium = WirelessMedium(sim, table, rngs.stream("m"))
        for node in nodes:
            medium.attach(node)
        medium.send(0, _packet(0, 1))
        sim.run(until=1.0)
        assert nodes[1].received == []

    def test_total_loss_blocks_delivery(self):
        sim, medium, nodes = _setup(loss=1.0)
        medium.send(0, _packet(0, 1))
        sim.run(until=1.0)
        assert nodes[1].received == []

    def test_airtime_includes_preamble(self):
        _, medium, _ = _setup()
        airtime = medium.airtime(500)
        assert airtime == pytest.approx(192e-6 + 500 * 8 / 1e6)

    def test_transmit_complete_callback(self):
        sim, medium, nodes = _setup()
        medium.send(0, _packet(0, 1))
        sim.run(until=1.0)
        assert len(nodes[0].completed) == 1

    def test_frames_serialize_fifo_per_sender(self):
        sim, medium, nodes = _setup()
        for i in range(5):
            medium.send(0, _packet(0, 1, pkt_id=i))
        sim.run(until=1.0)
        ids = [f.pkt_id for f, _ in nodes[1].received]
        assert ids == [0, 1, 2, 3, 4]

    def test_priority_frames_jump_queue(self):
        sim, medium, nodes = _setup()
        for i in range(3):
            medium.send(0, _packet(0, 1, pkt_id=i))
        ack = Ack(pkt_id=99, acker=0, for_src=1)
        medium.send(0, ack, priority=True)
        sim.run(until=1.0)
        kinds = [f.kind.value for f, _ in nodes[1].received]
        # The ack cannot beat the frame already in backoff but must
        # precede the remaining queued data.
        assert "ack" in kinds
        assert kinds.index("ack") <= 1

    def test_tx_counters(self):
        sim, medium, nodes = _setup()
        medium.send(0, _packet(0, 1))
        medium.send(1, _packet(1, 0))
        sim.run(until=1.0)
        assert medium.transmissions() == 2
        assert medium.transmissions(node_id=0) == 1
        assert medium.transmissions(kind="data") == 2
        assert medium.transmissions(kind="ack") == 0

    def test_carrier_sense_defers_concurrent_senders(self):
        sim, medium, nodes = _setup()
        medium.send(0, _packet(0, 1, size=1400))
        medium.send(1, _packet(1, 0, size=1400))
        sim.run(until=1.0)
        # Both frames deliver despite starting together: the second
        # sender deferred, so no collision destroyed them.
        assert len(nodes[2].received) == 2

    def test_duplicate_attach_rejected(self):
        sim, medium, nodes = _setup()
        with pytest.raises(ValueError):
            medium.attach(nodes[0])

    def test_unknown_transmitter_rejected(self):
        sim, medium, _ = _setup()
        with pytest.raises(KeyError):
            medium.send(99, _packet(99, 0))


class TestLinkTable:
    def test_symmetric_registration(self):
        table = LinkTable()
        process = BernoulliLoss(0.5, RngRegistry(1).stream("x"))
        table.set_link(1, 2, process, symmetric=True)
        assert table.get(1, 2) is process
        assert table.get(2, 1) is process

    def test_factory_creates_on_demand(self):
        calls = []

        def factory(src, dst):
            calls.append((src, dst))
            return BernoulliLoss(0.0, RngRegistry(1).stream("f", src, dst))

        table = LinkTable(factory=factory)
        assert table.get(3, 4) is not None
        assert table.get(3, 4) is not None  # cached
        assert calls == [(3, 4)]

    def test_loss_rate_for_missing_link_is_one(self):
        table = LinkTable()
        assert table.loss_rate(1, 2, 0.0) == 1.0


class TestBackplane:
    def test_delivery_after_serialization_and_latency(self):
        sim = Simulator()
        bp = Backplane(sim, bandwidth_bps=1e6, latency_s=0.01)
        bp.connect(1)
        bp.connect(2)
        seen = []
        arrival = bp.send(1, 2, "msg", 1000, seen.append)
        assert arrival == pytest.approx(1000 * 8 / 1e6 + 0.01)
        sim.run(until=1.0)
        assert seen == ["msg"]

    def test_uplink_serializes_messages(self):
        sim = Simulator()
        bp = Backplane(sim, bandwidth_bps=1e6, latency_s=0.0)
        for bs in (1, 2):
            bp.connect(bs)
        first = bp.send(1, 2, "a", 1000, lambda m: None)
        second = bp.send(1, 2, "b", 1000, lambda m: None)
        assert second == pytest.approx(first + 1000 * 8 / 1e6)

    def test_unknown_member_dropped_and_counted(self):
        # PR 7 degraded-operation contract: an unreachable peer is a
        # counted drop, not an exception (see tests/test_net_backplane
        # for the full edge-case suite).
        sim = Simulator()
        bp = Backplane(sim)
        bp.connect(1)
        assert bp.send(1, 9, "x", 10, lambda m: None) is None
        assert bp.dropped == {"relay": 1}
        assert bp.total_bytes() == 0

    def test_byte_accounting_by_category(self):
        sim = Simulator()
        bp = Backplane(sim)
        bp.connect(1)
        bp.connect(2)
        bp.send(1, 2, "x", 500, lambda m: None, category="relay")
        bp.send(1, 2, "y", 300, lambda m: None, category="salvage")
        assert bp.total_bytes("relay") == 500
        assert bp.total_bytes("salvage") == 300
        assert bp.total_bytes() == 800


# ----------------------------------------------------------------------
# Merged transmissions
# ----------------------------------------------------------------------

class TestMergedTransmissions:
    def test_queue_length_counts_in_flight_frame(self):
        sim = Simulator()
        rngs = RngRegistry(17)
        table = LinkTable()
        table.set_link(0, 1, BernoulliLoss(0.0, rngs.stream("l")))
        medium = WirelessMedium(sim, table, rngs.stream("m"))

        class _Node:
            def __init__(self, node_id):
                self.node_id = node_id

            def on_receive(self, frame, transmitter_id):
                pass

        medium.attach(_Node(0))
        medium.attach(_Node(1))
        medium.send(0, DataPacket(pkt_id=0, src=0, dst=1,
                                  direction=Direction.UPSTREAM,
                                  size_bytes=400))
        # Claimed off the deque immediately, but still pending at the
        # interface until its resolve event fires.
        assert medium.queue_length(0) == 1
        sim.run(until=2.0)
        assert medium.queue_length(0) == 0


# ----------------------------------------------------------------------
# Slot batches
# ----------------------------------------------------------------------

class _RxNode:
    def __init__(self, node_id, sim):
        self.node_id = node_id
        self.sim = sim
        self.received = []

    def on_receive(self, frame, transmitter_id):
        self.received.append((frame.pkt_id, transmitter_id,
                              self.sim.now))


def _batch_medium(seed):
    sim = Simulator()
    rngs = RngRegistry(seed)
    table = LinkTable()
    for a in range(3):
        for b in range(3):
            if a != b:
                # Mixed probabilities so outcomes are non-trivial.
                table.set_link(a, b, BernoulliLoss(
                    0.25 * ((a + b) % 3), rngs.stream("l", a, b)))
    medium = WirelessMedium(sim, table, rngs.stream("m"),
                            outcome_rng=rngs.stream("o"),
                            backoff_slots=0)
    nodes = [_RxNode(i, sim) for i in range(3)]
    for node in nodes:
        medium.attach(node)
    return sim, medium, nodes


def _frame(pkt_id, src):
    return DataPacket(pkt_id=pkt_id, src=src, dst=(src + 1) % 3,
                      direction=Direction.UPSTREAM, size_bytes=400)


class TestSlotBatch:
    def _entries(self):
        return [(src, _frame(src * 10, src)) for src in range(3)]

    def test_matches_sequential_outcomes_with_fewer_events(self):
        """Zero-width backoff: batch == sequential sends, one event.

        With deterministic contention order the sequential freeze path
        airs frames in emission order too, and both paths consume the
        outcome stream identically, so the delivered (frame, receiver)
        sets must match exactly; receptions may shift to the batch's
        last end time (the documented <= one-slot bound).
        """
        sim_b, medium_b, nodes_b = _batch_medium(seed=21)
        medium_b.send_slot_batch(self._entries())
        sim_b.run(until=1.0)
        assert medium_b.slot_batch_count == 1
        assert medium_b.slot_batch_frames == 3
        events_batch = sim_b.events_processed

        sim_s, medium_s, nodes_s = _batch_medium(seed=21)
        for transmitter_id, frame in self._entries():
            medium_s.send(transmitter_id, frame)
        sim_s.run(until=1.0)
        assert medium_s.slot_batch_count == 0
        events_seq = sim_s.events_processed

        for node_b, node_s in zip(nodes_b, nodes_s):
            assert [(p, t) for p, t, _ in node_b.received] == \
                [(p, t) for p, t, _ in node_s.received]
            for (_, _, at_b), (_, _, at_s) in zip(node_b.received,
                                                  node_s.received):
                assert at_b >= at_s
                assert at_b - at_s < 0.05
        assert events_batch < events_seq
        assert medium_b.transmissions() == medium_s.transmissions() == 3

    def test_busy_transmitter_forces_fallback(self):
        """A transmitter with a queued frame disqualifies the batch."""
        sim, medium, nodes = _batch_medium(seed=9)
        medium.send(0, _frame(99, 0))  # node 0 now has work in flight
        medium.send_slot_batch(self._entries())
        sim.run(until=1.0)
        assert medium.slot_batch_count == 0
        # Everything still airs and resolves through the classic path.
        assert medium.transmissions() == 4

    def test_default_protocol_run_batches_slots(self):
        sim, _ = vanlan_protocol(VanLanTestbed(seed=0), trip=0, seed=0)
        cbr = run_protocol_cbr(sim, 20.0)
        assert sim.medium.slot_batch_count > 50
        assert sim.medium.slot_batch_frames > 100
        assert len(cbr.up_deliveries) + len(cbr.down_deliveries) > 50


# ----------------------------------------------------------------------
# Scalar resolve oracle
# ----------------------------------------------------------------------

class _PlannedLoss:
    """Duck-typed bucketed loss process with a committable span.

    eps is a pure function of the bucket index (so reuse can never
    change an outcome), and the process "flips" at fixed multiples of
    ``flip_every``: windows and spans commit only up to the next flip,
    mimicking :class:`SteeredGilbertElliott`'s horizon cap.
    """

    def __init__(self, quantum=0.02, flip_every=math.inf, salt=0):
        self.quantum = quantum
        self.flip_every = flip_every
        self.salt = salt

    def _eps(self, key):
        return ((key * 37 + self.salt * 11) % 89) / 100.0

    def _next_flip(self, t):
        if self.flip_every is math.inf:
            return math.inf
        return (math.floor(t / self.flip_every) + 1.0) * self.flip_every

    def loss_rate(self, t):
        return self._eps(int(t / self.quantum))

    def is_lost(self, t):
        return False  # scalar path unused by these tests

    def loss_eps(self, t):
        return self._eps(int(t / self.quantum))

    def loss_eps_window(self, t):
        key = int(t / self.quantum)
        bound = (key + 1.0) * self.quantum
        flip = self._next_flip(t)
        return self._eps(key), (bound if bound < flip else flip)

    def loss_eps_span(self, t0, t1):
        hi = self._next_flip(t0)
        if t1 < hi:
            hi = t1
        if hi <= t0:
            return None
        quantum = self.quantum
        k0 = int(t0 / quantum)
        k1 = int(hi / quantum)
        eps = [self._eps(k) for k in range(k0, k1 + 1)]
        return eps, quantum, k0, hi


def _scalar_resolve(rows, start, uniforms):
    """The per-row reference: receiver i decodes iff u_i >= eps_i."""
    return [receiver_id
            for (receiver_id, process), u in zip(rows, uniforms)
            if u >= process.loss_eps(start)]


class TestScalarResolveOracle:
    def test_vectorized_resolves_match_the_per_row_reference(self):
        """One unplanned and one planned resolve, bit for bit."""
        sim = Simulator()
        rngs = RngRegistry(41)
        table = LinkTable()
        rows = []
        for rx in range(1, 13):
            process = BernoulliLoss(0.07 * rx, rngs.stream("l", rx)) \
                if rx % 2 else _PlannedLoss(salt=rx)
            table.set_link(0, rx, process)
            rows.append((rx, process))
        outcomes = rngs.stream("outcomes")
        mirror = copy.deepcopy(outcomes)
        medium = WirelessMedium(sim, table, rngs.stream("m"),
                                outcome_rng=outcomes, backoff_slots=0)
        nodes = [Node(i) for i in range(13)]
        for node in nodes:
            medium.attach(node)
        # Zero backoff: each frame airs DIFS after its send.  The first
        # resolve of the beacon interval draws a per-frame outcome
        # block; the second establishes the interval plan, whose pool
        # is one draw of _PLAN_DRAW_FRAMES frames' uniforms.
        n = len(rows)
        draws = (medium._OUTCOME_BLOCK, n * medium._PLAN_DRAW_FRAMES)
        expected = []
        for pkt_id, (sent, block) in enumerate(zip((0.01, 0.03), draws)):
            sim.schedule_at(sent, medium.send, 0, _packet(0, 1, pkt_id))
            start = sent + medium.difs
            expected.append(_scalar_resolve(rows, start,
                                            mirror.random(block)[:n]))
        sim.run(until=0.09)
        assert medium.predraw_fallback_frames == 1
        assert medium.predraw_planned_frames == 1
        for pkt_id, want in enumerate(expected):
            got = [node.node_id for node in nodes
                   if any(f.pkt_id == pkt_id for f, _ in node.received)]
            assert got == want
        assert 0 < sum(map(len, expected)) < 2 * n


# ----------------------------------------------------------------------
# Array resolve kernel
# ----------------------------------------------------------------------

class TestArrayKernelBitwise:
    def test_probability_extremes(self):
        """0/1-loss links behave exactly through the batched outcomes."""
        sim = Simulator()
        rngs = RngRegistry(11)
        table = LinkTable()
        table.set_link(0, 1, BernoulliLoss(0.0, rngs.stream("ok")))
        table.set_link(0, 2, BernoulliLoss(1.0, rngs.stream("bad")))
        medium = WirelessMedium(sim, table, rngs.stream("m"))

        class _Node:
            def __init__(self, node_id):
                self.node_id = node_id
                self.received = []

            def on_receive(self, frame, transmitter_id):
                self.received.append(frame.pkt_id)

        nodes = [_Node(i) for i in range(3)]
        for node in nodes:
            medium.attach(node)
        for pkt_id in range(20):
            medium.send(0, DataPacket(pkt_id=pkt_id, src=0, dst=1,
                                      direction=Direction.UPSTREAM,
                                      size_bytes=100))
        sim.run(until=5.0)
        assert nodes[1].received == list(range(20))
        assert nodes[2].received == []

    def test_rows_fall_back_for_eps_less_processes(self):
        """A process without loss_eps forces the per-row loop."""

        class _CoinOnly:
            static_loss_rate = 0.0

            def is_lost(self, t):
                return False

            def loss_rate(self, t):
                return 0.0

        sim = Simulator()
        rngs = RngRegistry(3)
        table = LinkTable()
        table.set_link(0, 1, _CoinOnly())
        medium = WirelessMedium(sim, table, rngs.stream("m"))

        class _Node:
            def __init__(self, node_id):
                self.node_id = node_id
                self.received = []

            def on_receive(self, frame, transmitter_id):
                self.received.append(frame.pkt_id)

        for node_id in (0, 1):
            medium.attach(_Node(node_id))
        medium._nodes[1].received = []
        medium.send(0, DataPacket(pkt_id=7, src=0, dst=1,
                                  direction=Direction.UPSTREAM,
                                  size_bytes=100))
        sim.run(until=1.0)
        assert medium._nodes[1].received == [7]


# ----------------------------------------------------------------------
# Backoff-freezing CSMA
# ----------------------------------------------------------------------

class _TxOrderObserver(MediumObserver):
    def __init__(self):
        self.order = []

    def on_transmit(self, transmitter_id, frame, start_time, end_time):
        self.order.append((transmitter_id, frame.kind_value,
                           getattr(frame, "pkt_id", None)))


class TestBackoffFreeze:
    def _contended_run(self, sends):
        """Three nodes, zero backoff window -> deterministic order."""
        sim = Simulator()
        rngs = RngRegistry(7)
        table = LinkTable()
        for a in range(3):
            for b in range(3):
                if a != b:
                    table.set_link(a, b, BernoulliLoss(
                        0.0, rngs.stream("l", a, b)))
        medium = WirelessMedium(sim, table, rngs.stream("m"),
                                backoff_slots=0)
        observer = _TxOrderObserver()
        medium.add_observer(observer)

        class _Node:
            def __init__(self, node_id):
                self.node_id = node_id
                self.received = []

            def on_receive(self, frame, transmitter_id):
                self.received.append((frame.pkt_id, transmitter_id))

        nodes = [_Node(i) for i in range(3)]
        for node in nodes:
            medium.attach(node)
        for at, src, pkt_id in sends:
            sim.schedule(at, medium.send, src,
                         DataPacket(pkt_id=pkt_id, src=src,
                                    dst=(src + 1) % 3,
                                    direction=Direction.UPSTREAM,
                                    size_bytes=600))
        sim.run(until=2.0)
        return observer.order

    def test_fifo_per_sender_under_saturation(self):
        sends = [(0.0, src, src * 100 + k)
                 for k in range(10) for src in range(3)]
        order = self._contended_run(sends)
        data_order = [pkt for _, kind, pkt in order if kind == "data"]
        for src in range(3):
            mine = [p for p in data_order if p // 100 == src]
            assert mine == sorted(mine)  # FIFO per sender
        assert len(data_order) == len(sends)


# ----------------------------------------------------------------------
# Interval-level outcome pre-draw
# ----------------------------------------------------------------------

class _RxSink:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def on_receive(self, frame, transmitter_id):
        self.received.append((frame.pkt_id, transmitter_id))


class TestIntervalPredraw:
    """Boundary behaviour of the interval pre-draw plane."""

    def _medium(self, n_rx=2, quantum=0.02, flip_every=math.inf,
                n_tx=1, **kwargs):
        sim = Simulator()
        rngs = RngRegistry(5)
        table = LinkTable()
        for tx in range(n_tx):
            for rx in range(n_tx, n_tx + n_rx):
                table.set_link(tx, rx, _PlannedLoss(
                    quantum=quantum, flip_every=flip_every,
                    salt=tx * 10 + rx))
        medium = WirelessMedium(sim, table, rngs.stream("m"),
                                outcome_rng=rngs.stream("o"),
                                backoff_slots=0,
                                predraw_interval_s=0.1, **kwargs)
        nodes = [_RxSink(i) for i in range(n_tx + n_rx)]
        for node in nodes:
            medium.attach(node)
        return sim, medium, nodes

    @staticmethod
    def _frame(pkt_id, src=0):
        return DataPacket(pkt_id=pkt_id, src=src, dst=1,
                          direction=Direction.UPSTREAM, size_bytes=50)

    def test_plans_arm_on_the_second_resolve_of_an_interval(self):
        """Frame 1 falls back and arms; frame 2 establishes a plan."""
        sim, medium, _ = self._medium()
        for k in range(4):
            sim.schedule(0.01 + 0.02 * k, medium.send, 0,
                         self._frame(k))
        sim.run(until=0.099)
        assert medium.predraw_plans == 1
        assert medium.predraw_fallback_frames == 1
        assert medium.predraw_planned_frames == 3
        assert medium.predraw_failed_plans == 0

    def test_single_frame_intervals_never_plan(self):
        """One resolve per interval stays on the per-slot fallback —
        pre-drawing 5 frames of uniforms for it would be waste."""
        sim, medium, _ = self._medium()
        for k in range(5):
            sim.schedule(0.01 + 0.1 * k, medium.send, 0, self._frame(k))
        sim.run(until=0.6)
        assert medium.predraw_plans == 0
        assert medium.predraw_planned_frames == 0
        assert medium.predraw_fallback_frames == 5

    def test_flip_inside_interval_splits_the_plan(self):
        """A commitment horizon shorter than the interval forces
        re-establishment mid-interval, never a stale threshold."""
        sim, medium, nodes = self._medium(flip_every=0.03)
        for k in range(5):
            sim.schedule(0.01 + 0.02 * k, medium.send, 0,
                         self._frame(k))
        sim.run(until=0.12)
        # Frame 0 arms; frame 1 plans up to the 0.06 flip; frame 3
        # (t=0.07) re-plans up to 0.09; frame 4 (t=0.09) re-plans to
        # the interval edge.
        assert medium.predraw_plans == 3
        assert medium.predraw_fallback_frames == 1
        assert medium.predraw_planned_frames == 4
        # Flip-capped horizons are commitments, not failures.
        assert medium.predraw_failed_plans == 0

    def test_partial_interval_at_run_end(self):
        """A plan reaching past the end of the run is harmless."""
        sim, medium, nodes = self._medium()
        for k in range(3):
            sim.schedule(0.01 + 0.015 * k, medium.send, 0,
                         self._frame(k))
        sim.run(until=0.05)  # stop mid-interval, plan alive to 0.1
        assert medium.predraw_plans == 1
        assert medium.predraw_planned_frames == 2
        total = sum(len(n.received) for n in nodes)
        assert total == sum(
            count for (_, kind), count in medium.delivered_count.items()
        )

    def test_mid_interval_contention_keeps_accounting_total(self):
        """Contending transmitters resolve through their own plans;
        every resolved frame is either planned or fallback."""
        sim, medium, nodes = self._medium(n_tx=2, n_rx=2)
        for k in range(6):
            at = 0.01 + 0.012 * k
            sim.schedule(at, medium.send, 0, self._frame(100 + k, 0))
            sim.schedule(at, medium.send, 1, self._frame(200 + k, 1))
        sim.run(until=0.3)
        resolved = medium.predraw_planned_frames \
            + medium.predraw_fallback_frames
        sent = sum(medium.tx_count.values())
        assert sent == 12
        assert resolved == sent
        assert medium.predraw_plans >= 1
        # Both contenders delivered traffic through the plane.
        delivered = {src for (_, src) in
                     {(pkt, tx) for n in nodes for (pkt, tx) in
                      n.received}}
        assert delivered == {0, 1}

    def test_refusing_process_parks_the_interval(self):
        """A process that cannot commit past t0 fails the plan once,
        then the whole interval rides the fallback path."""

        class _NoSpan(_PlannedLoss):
            def loss_eps_span(self, t0, t1):
                return None

        sim = Simulator()
        rngs = RngRegistry(5)
        table = LinkTable()
        table.set_link(0, 1, _NoSpan(salt=1))
        table.set_link(0, 2, _PlannedLoss(salt=2))
        medium = WirelessMedium(sim, table, rngs.stream("m"),
                                outcome_rng=rngs.stream("o"),
                                backoff_slots=0,
                                predraw_interval_s=0.1)
        for node in (_RxSink(0), _RxSink(1), _RxSink(2)):
            medium.attach(node)
        for k in range(4):
            sim.schedule(0.01 + 0.02 * k, medium.send, 0,
                         self._frame(k))
        sim.run(until=0.099)
        assert medium.predraw_failed_plans == 1
        assert medium.predraw_plans == 0
        assert medium.predraw_planned_frames == 0
        assert medium.predraw_fallback_frames == 4


class TestPredrawProtocolRuns:
    def test_default_run_exercises_the_plane(self):
        """The stock protocol run plans most slot-batch frames."""
        testbed = VanLanTestbed(seed=0)
        sim, _ = vanlan_protocol(testbed, trip=0, seed=0,
                                 config=ViFiConfig())
        cbr = run_protocol_cbr(sim, 20.0)
        medium = sim.medium
        assert medium.predraw_plans > 50
        assert medium.predraw_planned_frames > 200
        delivered = len(cbr.up_deliveries) + len(cbr.down_deliveries)
        assert delivered > 50


# ----------------------------------------------------------------------
# Reachability index and culling
# ----------------------------------------------------------------------

class TestReachabilityIndex:
    def _table(self, refresh=0.25):
        rngs = RngRegistry(2)
        table = LinkTable(reach_refresh_s=refresh)
        table.set_link(0, 1, BernoulliLoss(0.3, rngs.stream("a")))
        table.set_link(0, 2, BernoulliLoss(1.0, rngs.stream("b")))
        return table, rngs

    def test_culls_total_loss_links(self):
        table, _ = self._table()
        assert table.reachable_from(0, 0.0) == {1}

    def test_disabled_index_returns_none(self):
        table, _ = self._table(refresh=0.0)
        assert table.reachable_from(0, 0.0) is None
        assert table.reachable_links(0, 0.0) is None

    def test_registration_invalidates_cache(self):
        table, rngs = self._table()
        assert table.reachable_from(0, 0.0) == {1}
        table.set_link(0, 3, BernoulliLoss(0.0, rngs.stream("c")))
        assert table.reachable_from(0, 0.0) == {1, 3}

    def test_dynamic_link_reacquired_after_refresh(self):
        rngs = RngRegistry(4)
        table = LinkTable(reach_refresh_s=0.25)
        # Loss 1.0 during the first second, perfect afterwards.
        process = TraceDrivenLoss([1.0, 0.0, 0.0], rngs.stream("t"),
                                  out_of_range_rate=0.0)
        table.set_link(0, 1, process)
        assert table.reachable_from(0, 0.0) == frozenset()
        # Within the refresh window the verdict is cached ...
        assert table.reachable_from(0, 0.2) == frozenset()
        # ... and re-evaluated once it expires.
        assert table.reachable_from(0, 1.1) == {1}

    def test_reachable_links_sorted_pairs(self):
        table, rngs = self._table()
        table.set_link(0, 5, BernoulliLoss(0.1, rngs.stream("e")))
        pairs = table.reachable_links(0, 0.0)
        assert [dst for dst, _ in pairs] == [1, 5]

    def test_pairs_is_live_iterator(self):
        table, _ = self._table()
        assert sorted(table.pairs()) == [(0, 1), (0, 2)]


class _CountingObserver(MediumObserver):
    def __init__(self):
        self.losses = []
        self.deliveries = []

    def on_loss(self, transmitter_id, receiver_id, frame, time, collided):
        self.losses.append((transmitter_id, receiver_id))

    def on_deliver(self, transmitter_id, receiver_id, frame, time):
        self.deliveries.append((transmitter_id, receiver_id))


def _culling_medium(observer=None):
    """Node 0 reaches node 1 always and node 2 never."""
    sim = Simulator()
    rngs = RngRegistry(6)
    table = LinkTable()
    table.set_link(0, 1, BernoulliLoss(0.0, rngs.stream("ok")))
    table.set_link(0, 2, BernoulliLoss(1.0, rngs.stream("cull")))
    medium = WirelessMedium(sim, table, rngs.stream("m"))
    nodes = [Node(i) for i in range(3)]
    for node in nodes:
        medium.attach(node)
    if observer is not None:
        medium.add_observer(observer)
    return sim, medium, nodes


class TestMediumFastPath:
    def test_culled_receiver_never_delivers(self):
        sim, medium, nodes = _culling_medium()
        medium.send(0, _packet(0, 1, size=200))
        sim.run(until=1.0)
        assert len(nodes[1].received) == 1
        assert nodes[2].received == []

    def test_observer_still_sees_culled_losses(self):
        observer = _CountingObserver()
        sim, medium, nodes = _culling_medium(observer)
        medium.send(0, _packet(0, 1, size=200))
        sim.run(until=1.0)
        # The culled (always-lost) link still reports a loss event.
        assert (0, 2) in observer.losses
        assert (0, 1) in observer.deliveries

    def test_counter_accounting(self):
        sim, medium, nodes = _culling_medium()
        for i in range(3):
            medium.send(0, _packet(0, 1, pkt_id=i, size=200))
        medium.send(1, _packet(0, 1, pkt_id=9, size=200))
        sim.run(until=1.0)
        assert medium.transmissions() == 4
        assert medium.transmissions(node_id=0) == 3
        assert medium.transmissions(kind="data") == 4
        assert medium.transmissions(kind="ack") == 0
        assert medium.transmissions(kind="data", node_id=1) == 1
        assert medium.delivered_count[(1, "data")] == 3
