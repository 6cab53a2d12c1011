"""Backplane edge cases: unreachable peers, ordering, degradation."""

import pytest

from repro.net.backplane import Backplane
from repro.sim.engine import Simulator


def _plane(bandwidth_bps=1_000_000.0, latency_s=0.01, members=(1, 2, 3)):
    sim = Simulator()
    plane = Backplane(sim, bandwidth_bps=bandwidth_bps,
                      latency_s=latency_s)
    for bs in members:
        plane.connect(bs)
    return sim, plane


class TestReachability:
    def test_send_to_unregistered_bs_drops_gracefully(self):
        sim, plane = _plane()
        delivered = []
        assert plane.send(1, 99, "x", 100, delivered.append) is None
        assert plane.send(99, 1, "x", 100, delivered.append) is None
        sim.run(until=10.0)
        assert delivered == []
        assert plane.dropped == {"relay": 2}
        assert plane.total_bytes() == 0

    def test_partition_and_heal(self):
        sim, plane = _plane()
        plane.partition(2)
        delivered = []
        assert plane.send(1, 2, "a", 100, delivered.append) is None
        assert plane.send(2, 3, "b", 100, delivered.append) is None
        plane.heal(2)
        arrival = plane.send(1, 2, "c", 100, delivered.append)
        assert arrival is not None
        sim.run(until=10.0)
        assert delivered == ["c"]
        assert plane.dropped == {"relay": 2}

    def test_negative_size_still_rejected(self):
        _, plane = _plane()
        with pytest.raises(ValueError):
            plane.send(1, 2, "x", -1, lambda p: None)


class TestDeliveryOrdering:
    def test_fifo_per_sender_under_serialization(self):
        """Messages from one sender arrive in send order: the uplink
        serializes them even when submitted at the same instant."""
        sim, plane = _plane(bandwidth_bps=8_000.0, latency_s=0.5)
        order = []
        for tag in ("first", "second", "third"):
            plane.send(1, 2, tag, 1000, order.append)
        # 1000 bytes at 8 kbps = 1 s of uplink each, + 0.5 s latency.
        sim.run(until=10.0)
        assert order == ["first", "second", "third"]

    def test_latency_only_ordering_across_messages(self):
        sim, plane = _plane(bandwidth_bps=1e9, latency_s=0.25)
        arrivals = []
        plane.send(1, 2, "a", 10,
                   lambda p: arrivals.append((p, sim.now)))
        sim.run(until=0.1)
        plane.send(3, 2, "b", 10,
                   lambda p: arrivals.append((p, sim.now)))
        sim.run(until=10.0)
        assert [p for p, _ in arrivals] == ["a", "b"]
        assert arrivals[0][1] == pytest.approx(0.25, abs=1e-6)
        assert arrivals[1][1] == pytest.approx(0.35, abs=1e-6)

    def test_latency_spike_multiplier_delays_delivery(self):
        sim, plane = _plane(bandwidth_bps=1e9, latency_s=0.01)
        arrivals = []
        plane.latency_multiplier = 10.0
        plane.send(1, 2, "slow", 10,
                   lambda p: arrivals.append(sim.now))
        sim.run(until=5.0)
        assert arrivals[0] == pytest.approx(0.1, abs=1e-6)
        plane.latency_multiplier = 1.0
        plane.send(1, 2, "fast", 10,
                   lambda p: arrivals.append(sim.now))
        sim.run(until=10.0)
        assert arrivals[1] - 5.0 == pytest.approx(0.01, abs=1e-6)


class TestAccounting:
    def test_empty_membership_coordination_is_inert(self):
        """A backplane with no members drops everything and counts it —
        the empty-peer-set degenerate case never raises."""
        sim, plane = _plane(members=())
        assert plane.send(1, 2, "x", 100, lambda p: None) is None
        sim.run(until=1.0)
        assert plane.total_bytes() == 0
        assert plane.dropped == {"relay": 1}

    def test_bytes_and_messages_counted_per_category(self):
        sim, plane = _plane()
        plane.send(1, 2, "a", 100, lambda p: None, category="relay")
        plane.send(1, 2, "b", 50, lambda p: None, category="salvage")
        plane.send(2, 3, "c", 25, lambda p: None, category="relay")
        assert plane.total_bytes("relay") == 125
        assert plane.total_bytes("salvage") == 50
        assert plane.total_bytes() == 175
        assert plane.messages_sent == {"relay": 2, "salvage": 1}
        assert plane.dropped == {}
