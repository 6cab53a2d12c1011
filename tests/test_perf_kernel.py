"""Tests for the medium's resolve rows, CSMA and node bookkeeping.

* ``loss_eps_window`` validity bounds are sound: within a window the
  probability cannot change, so threshold reuse never changes an
  outcome;
* the backoff-freezing CSMA model serves each sender FIFO;
* the ring-buffer receiver state matches the ordered-dict reference,
  the estimator's batched ingest is observationally identical to eager
  ingest, and relay probabilities served through the cached
  :class:`~repro.core.relaying.RelayTable` equal the scalar
  computation bit for bit.
"""

import math
import random

from repro.core.node import _ReceiverState
from repro.core.probabilities import ReceptionEstimator
from repro.core.protocol import ViFiConfig
from repro.core.relaying import RelayContext, RelayTable, make_strategy
from repro.experiments.common import run_protocol_cbr, vanlan_protocol
from repro.net.channel import (
    BernoulliLoss,
    GilbertElliottLoss,
    SteeredGilbertElliott,
    TraceDrivenLoss,
)
from repro.net.medium import LinkTable, MediumObserver, WirelessMedium
from repro.net.packet import Beacon, DataPacket, Direction
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.testbeds.vanlan import VanLanTestbed


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


class TestLossEpsWindows:
    """``loss_eps_window`` bounds are sound: eps is constant inside."""

    def _check_windows(self, process, step, n):
        """Walk monotone times; probe strictly inside each window."""
        t = 0.0
        for _ in range(n):
            eps, until = process.loss_eps_window(t)
            assert 0.0 <= eps <= 1.0
            assert until >= t
            # A monotone probe strictly inside the window must see the
            # same probability (that is the reuse guarantee the array
            # kernel leans on).
            if math.isfinite(until):
                inside = min(0.25 * (until - t), 0.5 * step)
            else:
                inside = 0.5 * step
            if inside > 0.0:
                t = t + inside
                assert process.loss_eps(t) == eps
            t = t + step

    def test_bernoulli(self):
        process = BernoulliLoss(0.3, RngRegistry(1).stream("b"))
        self._check_windows(process, 0.1, 50)

    def test_gilbert_elliott(self):
        process = GilbertElliottLoss(0.05, 0.8, 0.9, 0.12,
                                     RngRegistry(2).stream("g"))
        self._check_windows(process, 0.05, 200)

    def test_trace_driven(self):
        process = TraceDrivenLoss([0.1, 0.9, 0.4], RngRegistry(3).stream("t"))
        self._check_windows(process, 0.13, 40)

    def test_steered_static(self):
        process = SteeredGilbertElliott(0.35, RngRegistry(4).stream("s"))
        self._check_windows(process, 0.03, 300)

    def test_trace_second_boundary_instants(self):
        """Exactly on a trace-second boundary the new second governs."""
        rates = [0.1, 0.9, 0.4]
        process = TraceDrivenLoss(rates, RngRegistry(5).stream("t"))
        for second, rate in enumerate(rates):
            eps, until = process.loss_eps_window(float(second))
            assert eps == rate
            assert until == float(second + 1)
            # The window is sound right up to (and excluding) its end.
            assert process.loss_eps(second + 0.999) == rate
        # Past the trace: the out-of-range rate holds forever.
        eps, until = process.loss_eps_window(float(len(rates)))
        assert eps == 1.0
        assert until == math.inf

    def test_steering_bucket_edge_instants(self):
        """Window bounds at exact bucket edges never go stale.

        Querying exactly on a LinkStateCache bucket edge may land the
        float-divided key on either side of the edge; the returned
        bound must still satisfy the soundness contract (eps constant
        strictly inside [t, bound)), even when it degenerates to the
        query time itself.
        """
        testbed = VanLanTestbed(seed=8)
        motion = testbed.vehicle_motion()
        from repro.net.propagation import LinkStateCache
        cache = LinkStateCache(testbed.link_model(0, 3, motion),
                               quantum_s=0.02)
        process = SteeredGilbertElliott(cache.loss_prob,
                                        rng=RngRegistry(8).stream("s"))
        for k in range(1, 400):
            t = k * 0.02  # exact bucket edges, monotone
            eps, until = process.loss_eps_window(t)
            assert until >= t
            assert process.loss_eps(t) == eps
            if until > t:
                probe = t + min(0.25 * (until - t), 1e-4)
                assert process.loss_eps(probe) == eps

    def test_pending_flip_caps_window(self):
        """A pending chain flip bounds the window; at the flip instant
        the flipped state governs and the bound moves past it."""
        process = GilbertElliottLoss(0.05, 0.8, 0.9, 0.12,
                                     RngRegistry(6).stream("g"))
        eps_by_state = {False: 0.05, True: 0.8}
        t = 0.0
        for _ in range(50):
            eps, flip_at = process.loss_eps_window(t)
            assert eps == eps_by_state[process._in_bad]
            assert flip_at == process._next_flip
            # Querying exactly at the flip instant advances the chain:
            # the opposite state's eps, and a strictly later bound.
            before = process._in_bad
            eps_at_flip, next_bound = process.loss_eps_window(flip_at)
            assert process._in_bad != before
            assert eps_at_flip == eps_by_state[process._in_bad]
            assert next_bound > flip_at
            t = flip_at

    def test_steered_matches_loss_eps(self):
        """window() returns the same eps value loss_eps would.

        Twin processes on identically seeded *independent* streams
        advance their chains through the same realization, so the
        windowed and plain accessors must agree at every instant.
        """
        a = SteeredGilbertElliott(0.35, RngRegistry(9).stream("x"))
        b = SteeredGilbertElliott(0.35, RngRegistry(9).fresh("x"))
        assert a.rng is not b.rng
        for k in range(200):
            t = 0.017 * k
            eps_w, _ = a.loss_eps_window(t)
            assert eps_w == b.loss_eps(t)


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
# Node bookkeeping
# ----------------------------------------------------------------------

class _OrderedDictReceiverReference:
    """The pre-PR 3 ordered-dict receiver state, as a test oracle."""

    def __init__(self, memory=512):
        from collections import OrderedDict
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


def _beacon(sender, incoming=None, learned=None):
    return Beacon(sender=sender, incoming=incoming or {},
                  learned=learned or {})


class TestEstimatorBatchedIngest:
    def test_lazy_flush_is_observationally_eager(self):
        """Query-per-beacon and query-at-end see identical state."""
        eager = ReceptionEstimator(1)
        lazy = ReceptionEstimator(1)
        rng = random.Random(7)
        beacons = []
        for k in range(200):
            sender = rng.choice([2, 3, 4])
            beacons.append((_beacon(
                sender,
                incoming={1: rng.random(), 5: rng.random()},
                learned={6: rng.random()},
            ), 0.01 * k))
        for beacon, now in beacons:
            eager.on_beacon(beacon, now)
            # Force an immediate fold on the eager instance.
            assert eager.probability(beacon.sender, 1, now) >= 0.0
            lazy.on_beacon(beacon, now)
        final = beacons[-1][1]
        for a in (2, 3, 4, 5, 6):
            for b in (1, 2, 3, 4, 5, 6):
                assert lazy.probability(a, b, final) == \
                    eager.probability(a, b, final)
        assert sorted(lazy.peers_heard_within(final, 10.0)) == \
            sorted(eager.peers_heard_within(final, 10.0))
        lazy.tick_second(2.0)
        eager.tick_second(2.0)
        assert lazy.incoming_estimates() == eager.incoming_estimates()

    def test_beacon_reports_shared_maps_are_frozen(self):
        """A sent beacon's maps never change after the fact (COW)."""
        est = ReceptionEstimator(1)
        est.on_beacon(_beacon(2, incoming={1: 0.5}), now=0.0)
        incoming_1, learned_1 = est.beacon_reports(now=0.1)
        snapshot = dict(learned_1)
        # A later peer report about node 1 must not mutate the maps
        # already embedded in transmitted beacons.
        est.on_beacon(_beacon(3, incoming={1: 0.9}), now=0.2)
        _, learned_2 = est.beacon_reports(now=0.3)
        assert dict(learned_1) == snapshot
        assert learned_2[3] == 0.9

    def test_beacon_reports_match_fresh_build(self):
        """Cached reports equal an uncached rebuild at every instant."""
        est = ReceptionEstimator(1, stale_s=1.0)
        est.on_beacon(_beacon(2, incoming={1: 0.5}), now=0.0)
        est.on_beacon(_beacon(3, incoming={1: 0.7}), now=0.4)
        for now in (0.5, 0.9, 1.05, 1.2, 1.45, 2.0):
            _, learned = est.beacon_reports(now=now)
            expected = {
                peer: prob for peer, (prob, ts) in est._outgoing.items()
                if now - ts <= est.stale_s
            }
            assert dict(learned) == expected


class TestRelayTable:
    def _estimator_with_state(self):
        est = ReceptionEstimator(3, stale_s=5.0)
        est.on_beacon(_beacon(0, incoming={1: 0.8, 3: 0.6, 4: 0.3},
                              learned={3: 0.55}), now=1.0)
        est.on_beacon(_beacon(1, incoming={0: 0.7, 3: 0.45, 4: 0.2},
                              learned={0: 0.75}), now=1.1)
        est.on_beacon(_beacon(4, incoming={0: 0.35, 1: 0.25},
                              learned={1: 0.3}), now=1.2)
        for k in range(9):
            est.on_beacon(_beacon(3, incoming={}), now=1.3 + 0.01 * k)
        return est

    def test_table_matches_scalar_probabilities(self):
        est = self._estimator_with_state()
        now = 2.0
        aux_ids = (3, 4)
        src, dst = 0, 1
        table = est.relay_table(aux_ids, src, dst, now)
        p = est.probability_lookup(now)
        p_src_dst = p(src, dst)
        denominator = 0.0
        for i, aux in enumerate(aux_ids):
            c_i = p(src, aux) * (1.0 - p_src_dst * p(dst, aux))
            assert float(table.contention[i]) == c_i
            assert float(table.p_to_dst[i]) == p(aux, dst)
            denominator += c_i * p(aux, dst)
        assert table.denominator == denominator
        assert table.own_delivery(3) == p(3, dst)

    def test_cached_table_stays_exact_across_unrelated_traffic(self):
        est = self._estimator_with_state()
        now = 2.0
        table_1 = est.relay_table((3, 4), 0, 1, now)
        # A beacon from a non-participant must not invalidate the
        # entry; participants' reports do.
        est.on_beacon(_beacon(9, incoming={}), now=2.05)
        table_2 = est.relay_table((3, 4), 0, 1, 2.1)
        assert table_2 is table_1
        est.on_beacon(_beacon(0, incoming={1: 0.9, 3: 0.7, 4: 0.4}),
                      now=2.2)
        table_3 = est.relay_table((3, 4), 0, 1, 2.3)
        assert table_3 is not table_1
        p = est.probability_lookup(2.3)
        assert table_3.own_delivery(3) == p(3, 1)

    def test_strategies_agree_with_and_without_table(self):
        est = self._estimator_with_state()
        now = 2.0
        aux_ids = (3, 4)
        table = est.relay_table(aux_ids, 0, 1, now)
        p = est.probability_lookup(now)
        for name in ("vifi", "not-g1", "not-g2"):
            strategy = make_strategy(name)
            with_table = strategy.relay_probability(RelayContext(
                self_id=3, aux_ids=aux_ids, src=0, dst=1, p=p,
                table=table,
            ))
            without = strategy.relay_probability(RelayContext(
                self_id=3, aux_ids=aux_ids, src=0, dst=1, p=p,
            ))
            assert with_table == without

    def test_degenerate_denominator_falls_back_to_relay(self):
        table = RelayTable((7,), 0, 1, lambda a, b: 0.0)
        strategy = make_strategy("vifi")
        probability = strategy.relay_probability(RelayContext(
            self_id=7, aux_ids=(7,), src=0, dst=1,
            p=lambda a, b: 0.0, table=table,
        ))
        assert probability == 1.0


# ----------------------------------------------------------------------
# Interval-level outcome pre-draw
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
