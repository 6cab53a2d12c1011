"""Correctness tests for the link-evaluation fast path.

Covers the guarantees the perf work leans on:

* ``LinkStateCache(quantum_s=0)`` is bit-for-bit identical to the
  uncached link model;
* cached reception probabilities never leave the range the uncached
  model spans inside the same time quantum (the quantum-induced bound);
* the gray-period bisection/pruning matches dense scanning;
* the reachability index culls only truly unreachable links and
  notices topology and trace changes;
* the simulator's live-event counter and tombstone compaction;
* the medium's Counter-backed accounting.
"""

import pytest

from repro.net.channel import BernoulliLoss, TraceDrivenLoss
from repro.net.medium import LinkTable, MediumObserver, WirelessMedium
from repro.net.packet import DataPacket, Direction
from repro.net.propagation import (
    GrayPeriodProcess,
    LinkStateCache,
)
from repro.sim.engine import Simulator
from repro.sim.rng import BufferedUniforms, RngRegistry
from repro.testbeds.vanlan import VanLanTestbed


class TestLinkStateCacheDeterminism:
    def test_quantum_zero_values_identical(self):
        a = VanLanTestbed(seed=11)
        b = VanLanTestbed(seed=11)
        link = a.link_model(0, 1, a.vehicle_motion())
        cached = LinkStateCache(b.link_model(0, 1, b.vehicle_motion()),
                                quantum_s=0.0)
        for k in range(400):
            t = k * 0.037
            assert cached.reception_prob(t) == link.reception_prob(t)
            assert cached.rssi(t) == link.rssi(t)

    def test_cached_prob_within_quantum_bound(self):
        """Cached values must lie in the uncached range of their bucket."""
        quantum = 0.02
        a = VanLanTestbed(seed=7)
        b = VanLanTestbed(seed=7)
        raw = a.link_model(0, 4, a.vehicle_motion())
        cached = LinkStateCache(b.link_model(0, 4, b.vehicle_motion()),
                                quantum_s=quantum)
        steps_per_bucket = 8
        dt = quantum / steps_per_bucket
        n_buckets = 600
        for bucket in range(n_buckets):
            t0 = bucket * quantum
            raw_values = [raw.reception_prob(t0 + i * dt)
                          for i in range(steps_per_bucket)]
            cached_values = {cached.reception_prob(t0 + i * dt)
                             for i in range(steps_per_bucket)}
            # One evaluation per bucket, taken from inside the bucket.
            assert len(cached_values) == 1
            value = cached_values.pop()
            lo, hi = min(raw_values), max(raw_values)
            assert lo - 1e-12 <= value <= hi + 1e-12


class TestGrayPeriodFastPath:
    def test_bisect_matches_dense_scan(self):
        rngs = RngRegistry(5)
        coarse = GrayPeriodProcess(1.0 / 15.0, 3.0, rngs.fresh("g"))
        dense = GrayPeriodProcess(1.0 / 15.0, 3.0, rngs.fresh("g"))
        dense_flags = {}
        for k in range(40000):
            t = k * 0.05
            dense_flags[t] = dense.in_gray(t)
        for k in range(0, 40000, 7):
            t = k * 0.05
            assert coarse.in_gray(t) == dense_flags[t]

    def test_pruning_bounds_interval_storage(self):
        gray = GrayPeriodProcess(2.0, 0.5, RngRegistry(9).fresh("p"),
                                 horizon_hint_s=100.0)
        for k in range(200000):
            gray.in_gray(k * 0.05)
        # ~20k expected onsets over 10 ks; pruning must keep only the
        # recent tail rather than the whole history.
        assert len(gray._starts) < 2000

    def test_zero_rate_never_gray(self):
        gray = GrayPeriodProcess(0.0, 2.0, RngRegistry(1).fresh("z"))
        assert not any(gray.in_gray(t * 5.0) for t in range(200))


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


class _Node:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def on_receive(self, frame, transmitter_id):
        self.received.append((frame, transmitter_id))


def _medium(observer=None):
    sim = Simulator()
    rngs = RngRegistry(6)
    table = LinkTable()
    table.set_link(0, 1, BernoulliLoss(0.0, rngs.stream("ok")))
    table.set_link(0, 2, BernoulliLoss(1.0, rngs.stream("cull")))
    medium = WirelessMedium(sim, table, rngs.stream("m"))
    nodes = [_Node(i) for i in range(3)]
    for node in nodes:
        medium.attach(node)
    if observer is not None:
        medium.add_observer(observer)
    return sim, medium, nodes


def _packet(pkt_id=0):
    return DataPacket(pkt_id=pkt_id, src=0, dst=1,
                      direction=Direction.UPSTREAM, size_bytes=200)


class TestMediumFastPath:
    def test_culled_receiver_never_delivers(self):
        sim, medium, nodes = _medium()
        medium.send(0, _packet())
        sim.run(until=1.0)
        assert len(nodes[1].received) == 1
        assert nodes[2].received == []

    def test_observer_still_sees_culled_losses(self):
        observer = _CountingObserver()
        sim, medium, nodes = _medium(observer)
        medium.send(0, _packet())
        sim.run(until=1.0)
        # The culled (always-lost) link still reports a loss event.
        assert (0, 2) in observer.losses
        assert (0, 1) in observer.deliveries

    def test_counter_accounting(self):
        sim, medium, nodes = _medium()
        for i in range(3):
            medium.send(0, _packet(pkt_id=i))
        medium.send(1, _packet(pkt_id=9))
        sim.run(until=1.0)
        assert medium.transmissions() == 4
        assert medium.transmissions(node_id=0) == 3
        assert medium.transmissions(kind="data") == 4
        assert medium.transmissions(kind="ack") == 0
        assert medium.transmissions(kind="data", node_id=1) == 1
        assert medium.delivered_count[(1, "data")] == 3


class TestEngineFastPath:
    def test_pending_is_live_count(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
        assert sim.pending == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending == 6
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 6

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1

    def test_tombstone_compaction_shrinks_queue(self):
        sim = Simulator()
        keep = [sim.schedule(10.0 + i, lambda: None) for i in range(50)]
        doomed = [sim.schedule(1.0 + i * 1e-3, lambda: None)
                  for i in range(400)]
        assert len(sim._queue) == 450
        for handle in doomed:
            handle.cancel()
        # Tombstones exceeded half the queue: it must have compacted.
        assert len(sim._queue) < 120
        assert sim.pending == 50
        fired = sim.run()
        assert fired == 50
        assert all(not h.active for h in keep)

    def test_cancel_heavy_run_stays_correct(self):
        sim = Simulator()
        fired = []
        for i in range(500):
            handle = sim.schedule(1.0 + i * 0.01, fired.append, i)
            if i % 2:
                handle.cancel()
        sim.run()
        assert fired == [i for i in range(500) if not i % 2]

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        handle.cancel()  # must not drive the live count negative
        assert sim.pending == 0


class TestBufferedUniforms:
    def test_matches_scalar_draw_sequence(self):
        scalar = RngRegistry(8).fresh("u")
        buffered = BufferedUniforms(RngRegistry(8).fresh("u"), block=32)
        expected = [scalar.random() for _ in range(100)]
        got = [buffered.next() for _ in range(100)]
        assert got == pytest.approx(expected, abs=0.0)

    def test_bernoulli_extremes_unchanged(self):
        rngs = RngRegistry(12)
        always = BernoulliLoss(1.0, rngs.stream("x"))
        never = BernoulliLoss(0.0, rngs.stream("y"))
        assert all(always.is_lost(t * 0.1) for t in range(50))
        assert not any(never.is_lost(t * 0.1) for t in range(50))
