"""Unit tests for the unicast MAC mode (Section 5.1 ablation)."""

from repro.core.protocol import ViFiConfig
from repro.experiments.common import run_protocol_cbr, vanlan_protocol
from repro.net.channel import BernoulliLoss
from repro.net.medium import LinkTable, WirelessMedium
from repro.net.packet import DataPacket, Direction
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.testbeds.vanlan import VanLanTestbed


class Node:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []
        self.completed = []

    def on_receive(self, frame, transmitter_id):
        self.received.append(frame)

    def on_transmit_complete(self, frame):
        self.completed.append(frame)


def setup(loss_ab, mac_retry_limit=4):
    sim = Simulator()
    rngs = RngRegistry(11)
    table = LinkTable()
    table.set_link(0, 1, loss_ab)
    table.set_link(1, 0, BernoulliLoss(0.0))
    table.set_link(0, 2, BernoulliLoss(0.0))
    medium = WirelessMedium(sim, table, rngs.stream("m"),
                            mac_retry_limit=mac_retry_limit)
    nodes = [Node(0), Node(1), Node(2)]
    for node in nodes:
        medium.attach(node)
    return sim, medium, nodes


def packet(pkt_id=0):
    return DataPacket(pkt_id=pkt_id, src=0, dst=1,
                      direction=Direction.UPSTREAM, size_bytes=200)


def test_unicast_retries_until_delivered():
    # First two attempts lost, third succeeds.
    class FailNTimes:
        """Certain loss for the first *n* frames, then certain
        delivery; each threshold holds for its own instant only."""

        def __init__(self, n):
            self.remaining = n

        def loss_eps_window(self, t):
            if self.remaining > 0:
                self.remaining -= 1
                return 1.0, t
            return 0.0, t

        def loss_rate(self, t):
            return 0.0

    sim, medium, nodes = setup(FailNTimes(2))
    medium.send(0, packet(), unicast_to=1)
    sim.run(until=2.0)
    assert len(nodes[1].received) == 1
    assert medium.transmissions(kind="data") == 3
    # Completion fires exactly once, at final resolution.
    assert len(nodes[0].completed) == 1
    # One heap event (the claimed resolve) per attempt.
    assert sim.events_processed == 3


def test_unicast_gives_up_after_retry_limit():
    sim, medium, nodes = setup(
        BernoulliLoss(1.0),
        mac_retry_limit=3,
    )
    medium.send(0, packet(), unicast_to=1)
    sim.run(until=5.0)
    assert nodes[1].received == []
    assert medium.transmissions(kind="data") == 4  # 1 + 3 retries
    assert len(nodes[0].completed) == 1
    assert sim.events_processed == 4


def test_unicast_backoff_window_grows_and_resets():
    sim, medium, nodes = setup(
        BernoulliLoss(1.0),
        mac_retry_limit=2,
    )
    base_cw = medium.backoff_slots
    medium.send(0, packet(), unicast_to=1)
    sim.run(until=5.0)
    # After the final give-up the window resets.
    assert medium._cw[0] == base_cw


def test_bystanders_overhear_unicast_attempts():
    sim, medium, nodes = setup(
        BernoulliLoss(1.0),
        mac_retry_limit=2,
    )
    medium.send(0, packet(), unicast_to=1)
    sim.run(until=5.0)
    # Node 2 has a clean link and hears every attempt.
    assert len(nodes[2].received) == 3


def test_broadcast_never_retries():
    sim, medium, nodes = setup(
        BernoulliLoss(1.0))
    medium.send(0, packet())
    sim.run(until=2.0)
    assert medium.transmissions(kind="data") == 1


def test_unicast_success_does_not_retry():
    sim, medium, nodes = setup(
        BernoulliLoss(0.0))
    medium.send(0, packet(), unicast_to=1)
    sim.run(until=2.0)
    assert medium.transmissions(kind="data") == 1
    assert len(nodes[1].received) == 1


def test_protocol_unicast_ablation_sends_more_data_frames():
    """BRR over 802.11 unicast (Section 5.1 aside) on a real trip.

    MAC retries air extra data frames for the same CBR load, and the
    run still delivers: the retry path of the medium works end to end.
    """
    counts = {}
    for name, config in (("broadcast", ViFiConfig().brr_variant()),
                         ("unicast", ViFiConfig().brr_unicast_variant())):
        sim, _ = vanlan_protocol(VanLanTestbed(seed=0), trip=0, seed=0,
                                 config=config, prefill=31.0)
        cbr = run_protocol_cbr(sim, 30.0)
        delivered = len(cbr.up_deliveries) + len(cbr.down_deliveries)
        counts[name] = (sim.medium.transmissions(kind="data"), delivered)
    assert counts["unicast"][0] > counts["broadcast"][0]
    assert counts["unicast"][1] > 0
    assert counts["broadcast"][1] > 0
