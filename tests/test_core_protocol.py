"""Integration tests for the ViFi protocol engines.

These run small but complete protocol simulations over hand-built link
tables, so every behaviour is attributable: anchor selection, relaying
in both directions, ack suppression, bitmap acks, salvaging, adaptive
retransmission, and the BRR comparator.
"""

import pytest

from repro.core.perfect import perfect_relay_efficiency
from repro.core.protocol import ViFiConfig, ViFiSimulation
from repro.net.channel import BernoulliLoss, TraceDrivenLoss
from repro.net.medium import LinkTable
from repro.net.packet import Direction

VEHICLE = 0


def build_table(links):
    """LinkTable from {(src, dst): loss_rate} with reliable defaults."""
    table = LinkTable()
    for (a, b), loss in links.items():
        table.set_link(a, b, BernoulliLoss(loss))
    return table


def full_mesh(bs_ids, vehicle_loss=0.0, interbs_loss=0.0):
    links = {}
    for bs in bs_ids:
        links[(VEHICLE, bs)] = vehicle_loss
        links[(bs, VEHICLE)] = vehicle_loss
    for a in bs_ids:
        for b in bs_ids:
            if a != b:
                links[(a, b)] = interbs_loss
    return build_table(links)


def make_sim(links_or_table, bs_ids, config=None, seed=3):
    table = links_or_table
    if isinstance(links_or_table, dict):
        table = build_table(links_or_table)
    sim = ViFiSimulation(bs_ids, table, config=config or ViFiConfig(),
                         seed=seed)
    sim.start()
    return sim


def delivered_seqs(sim):
    """Lists the app sinks fill with each delivered packet's seq.

    Returns ``(upstream, downstream)``: wired-side deliveries and
    vehicle deliveries, in delivery order.
    """
    upstream, downstream = [], []
    sim.set_upstream_sink(lambda packet, at: upstream.append(packet.seq))
    sim.set_downstream_sink(
        lambda packet, at: downstream.append(packet.seq))
    return upstream, downstream


class TestAnchorSelection:
    def test_vehicle_anchors_to_best_bs(self):
        links = {
            (VEHICLE, 1): 0.1, (1, VEHICLE): 0.1,
            (VEHICLE, 2): 0.7, (2, VEHICLE): 0.7,
            (1, 2): 0.0, (2, 1): 0.0,
        }
        sim = make_sim(links, [1, 2])
        sim.run(until=5.0)
        assert sim.vehicle.anchor_id == 1

    def test_bs_learns_anchor_role(self):
        sim = make_sim(full_mesh([1, 2]), [1, 2])
        sim.run(until=5.0)
        anchor = sim.vehicle.anchor_id
        assert sim.bs_nodes[anchor].is_anchor
        other = 2 if anchor == 1 else 1
        assert not sim.bs_nodes[other].is_anchor

    def test_auxiliaries_designated(self):
        sim = make_sim(full_mesh([1, 2, 3]), [1, 2, 3])
        sim.run(until=5.0)
        aux = set(sim.vehicle.aux_ids)
        assert sim.vehicle.anchor_id not in aux
        assert len(aux) == 2

    def test_anchor_switches_when_link_dies(self):
        table = LinkTable()
        # BS 1 good for 10 s then dead; BS 2 the reverse.
        table.set_link(VEHICLE, 1, TraceDrivenLoss([0.0] * 10 + [1.0] * 20))
        table.set_link(1, VEHICLE, TraceDrivenLoss([0.0] * 10 + [1.0] * 20))
        table.set_link(VEHICLE, 2, TraceDrivenLoss([0.9] * 10 + [0.0] * 20))
        table.set_link(2, VEHICLE, TraceDrivenLoss([0.9] * 10 + [0.0] * 20))
        table.set_link(1, 2, BernoulliLoss(0.0))
        table.set_link(2, 1, BernoulliLoss(0.0))
        sim = make_sim(table, [1, 2])
        sim.run(until=8.0)
        assert sim.vehicle.anchor_id == 1
        sim.run(until=20.0)
        assert sim.vehicle.anchor_id == 2
        assert sim.stats.anchor_changes >= 1


class TestDataPath:
    def test_upstream_delivery_on_clean_link(self):
        sim = make_sim(full_mesh([1, 2]), [1, 2])
        upstream, _ = delivered_seqs(sim)
        sim.run(until=8.0)
        for seq in range(20):
            sim.send_upstream(("up", seq), 500, flow_id=1, seq=seq)
        sim.run(until=12.0)
        assert len(upstream) == 20

    def test_downstream_delivery_on_clean_link(self):
        sim = make_sim(full_mesh([1, 2]), [1, 2])
        _, downstream = delivered_seqs(sim)
        sim.run(until=8.0)
        for seq in range(20):
            sim.send_downstream(("down", seq), 500, flow_id=2, seq=seq)
        sim.run(until=12.0)
        assert len(downstream) == 20

    def test_packet_record_keeps_creation_time(self):
        """A packet queued before the vehicle has an anchor records
        when it was created, not when it first aired."""
        sim = make_sim(full_mesh([1, 2]), [1, 2])
        sim.send_upstream(("up", 0), 500, flow_id=1, seq=0)
        sim.run(until=8.0)
        record, = sim.stats.packet_records.values()
        first_tx = min(tx.time for tx in sim.stats.tx_records.values()
                       if tx.pkt_key == record.pkt_key)
        assert first_tx > 0.0
        assert record.created_at == 0.0

    def test_no_duplicate_app_delivery(self):
        # A lossy link forces retransmissions; the app must still see
        # each seq exactly once.  Salvaging is off: a salvaged packet
        # legitimately re-enters under a fresh (src, pkt_id) when its
        # ack was lost after delivery (Section 4.5 accepts that
        # duplicate), which would hide what this test pins — the
        # retransmission/bitmap dedup path.
        sim = make_sim(full_mesh([1, 2], vehicle_loss=0.4), [1, 2],
                       config=ViFiConfig(salvage_enabled=False),
                       seed=11)
        _, seqs = delivered_seqs(sim)
        sim.run(until=8.0)
        for seq in range(30):
            sim.send_downstream(("d", seq), 200, flow_id=2, seq=seq)
        sim.run(until=20.0)
        assert len(seqs) == len(set(seqs))

    def test_retransmission_recovers_losses(self):
        sim = make_sim(full_mesh([1], vehicle_loss=0.5), [1], seed=13)
        upstream, _ = delivered_seqs(sim)
        sim.run(until=8.0)
        for seq in range(50):
            sim.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
        sim.run(until=30.0)
        # 0.5 loss with 3 retransmissions: ~94% expected delivery.
        assert len(upstream) >= 40

    def test_max_retx_zero_disables_recovery(self):
        config = ViFiConfig(max_retx=0, relay_enabled=False,
                            salvage_enabled=False)
        sim = make_sim(full_mesh([1], vehicle_loss=0.5), [1],
                       config=config, seed=13)
        upstream, _ = delivered_seqs(sim)
        sim.run(until=8.0)
        for seq in range(100):
            sim.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
        sim.run(until=30.0)
        assert 30 <= len(upstream) <= 70  # ~ one-shot delivery rate


class TestRelaying:
    def _diversity_table(self, direct_loss):
        """Vehicle-anchor link lossy; auxiliary path clean.

        BS 1 is the anchor (the vehicle hears its beacons best); BS 2
        overhears the vehicle perfectly and can relay.
        """
        links = {
            (VEHICLE, 1): direct_loss, (1, VEHICLE): direct_loss,
            (VEHICLE, 2): 0.0,
            (2, VEHICLE): min(direct_loss + 0.3, 0.9),
            (1, 2): 0.0, (2, 1): 0.0,
        }
        return build_table(links)

    def test_upstream_relaying_rescues_packets(self):
        config = ViFiConfig(max_retx=0, salvage_enabled=False)
        sim = make_sim(self._diversity_table(0.3), [1, 2],
                       config=config, seed=19)
        vifi_delivered, _ = delivered_seqs(sim)
        sim.run(until=8.0)
        assert sim.vehicle.anchor_id == 1
        for seq in range(100):
            sim.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
        sim.run(until=30.0)

        brr = make_sim(self._diversity_table(0.3), [1, 2],
                       config=config.brr_variant(), seed=19)
        brr_delivered, _ = delivered_seqs(brr)
        brr.run(until=8.0)
        for seq in range(100):
            brr.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
        brr.run(until=30.0)
        assert len(vifi_delivered) > len(brr_delivered)

    def test_upstream_relays_ride_backplane(self):
        config = ViFiConfig(max_retx=0, salvage_enabled=False)
        sim = make_sim(self._diversity_table(0.4), [1, 2],
                       config=config, seed=23)
        sim.run(until=8.0)
        for seq in range(100):
            sim.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
        sim.run(until=30.0)
        assert sim.backplane.total_bytes("relay") > 0

    def test_downstream_relays_on_wireless(self):
        config = ViFiConfig(max_retx=0, salvage_enabled=False)
        sim = make_sim(self._diversity_table(0.4), [1, 2],
                       config=config, seed=29)
        sim.run(until=8.0)
        for seq in range(100):
            sim.send_downstream(("d", seq), 200, flow_id=2, seq=seq)
        sim.run(until=30.0)
        relayed = [p for p in sim.stats.packet_records.values()
                   if p.direction == Direction.DOWNSTREAM
                   and p.relay_count > 0]
        assert relayed
        # Relay copies appear as data transmissions from BS 2.
        assert sim.medium.transmissions(kind="data", node_id=2) > 0

    def test_brr_variant_never_relays(self):
        config = ViFiConfig().brr_variant()
        sim = make_sim(self._diversity_table(0.4), [1, 2],
                       config=config, seed=31)
        sim.run(until=8.0)
        for seq in range(50):
            sim.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
            sim.send_downstream(("d", seq), 200, flow_id=2, seq=seq)
        sim.run(until=20.0)
        # The auxiliary functionality is off: no decision is even
        # scheduled, while overhears are still recorded.
        assert sim.stats.relay_decisions == []
        assert sim.backplane.total_bytes("relay") == 0
        assert any(tx.heard_by_aux
                   for tx in sim.stats.tx_records.values())

    def test_only_relaying_basestations_sample_the_ack_gap(self):
        """The ack-gap window sizes relay decisions only: BRR, which
        makes none, feeds it no sample, while ViFi's auxiliary does."""
        counts = {}
        for name, config in (("brr", ViFiConfig().brr_variant()),
                             ("vifi", ViFiConfig())):
            sim = make_sim(self._diversity_table(0.4), [1, 2],
                           config=config, seed=31)
            sim.run(until=8.0)
            for seq in range(50):
                sim.send_upstream(("u", seq), 200, flow_id=1, seq=seq)
                sim.send_downstream(("d", seq), 200, flow_id=2, seq=seq)
            sim.run(until=20.0)
            counts[name] = [node._ack_gap.sample_count
                            for node in sim.bs_nodes.values()]
        assert counts["brr"] == [0, 0]
        assert sum(counts["vifi"]) > 0

    def test_relayed_copies_not_rerelayed(self):
        config = ViFiConfig(max_retx=0, salvage_enabled=False)
        links = {
            (VEHICLE, 1): 0.4, (1, VEHICLE): 0.4,
            (VEHICLE, 2): 0.3, (2, VEHICLE): 0.0,
            (VEHICLE, 3): 0.3, (3, VEHICLE): 0.0,
            (1, 2): 0.0, (2, 1): 0.0,
            (1, 3): 0.0, (3, 1): 0.0,
            (2, 3): 0.0, (3, 2): 0.0,
        }
        sim = make_sim(links, [1, 2, 3], config=config, seed=37)
        sim.run(until=8.0)
        for seq in range(100):
            sim.send_downstream(("d", seq), 200, flow_id=2, seq=seq)
        sim.run(until=30.0)
        # Each packet is relayed at most once per auxiliary, and a
        # relayed copy must never spawn another relay: the relay count
        # per packet is bounded by the number of auxiliaries (2).
        for record in sim.stats.packet_records.values():
            assert record.relay_count <= 2


class TestSalvaging:
    def _switch_table(self):
        """Anchor 1 dies at t=10 s; BS 2 takes over."""
        table = LinkTable()
        profile_1 = [0.05] * 10 + [1.0] * 30
        profile_2 = [0.6] * 10 + [0.05] * 30
        table.set_link(VEHICLE, 1, TraceDrivenLoss(profile_1))
        table.set_link(1, VEHICLE, TraceDrivenLoss(profile_1))
        table.set_link(VEHICLE, 2, TraceDrivenLoss(profile_2))
        table.set_link(2, VEHICLE, TraceDrivenLoss(profile_2))
        table.set_link(1, 2, BernoulliLoss(0.0))
        table.set_link(2, 1, BernoulliLoss(0.0))
        return table

    def _drive_through_switch(self, sim, n=40):
        """Send packets continuously across the anchor switch.

        The gateway keeps routing to the dying anchor until the vehicle
        re-anchors and the routing update lands, so a steady stream
        leaves fresh (< 1 s old) unacked packets stranded there —
        exactly the population salvaging targets.
        """
        sim.run(until=9.0)
        assert sim.vehicle.anchor_id == 1

        def feed(seq=[0]):
            if seq[0] >= n:
                return
            sim.send_downstream(("d", seq[0]), 300, flow_id=2,
                                seq=seq[0])
            seq[0] += 1
            sim.sim.schedule(0.1, feed)

        sim.sim.schedule_at(9.0, feed)
        sim.run(until=35.0)

    def test_salvage_rescues_stranded_packets(self):
        sim = make_sim(self._switch_table(), [1, 2],
                       config=ViFiConfig(relay_enabled=False), seed=43)
        _, downstream = delivered_seqs(sim)
        self._drive_through_switch(sim)
        assert sim.vehicle.anchor_id == 2
        assert sim.stats.salvage_requests >= 1
        assert sim.stats.salvaged_packets > 0
        assert len(set(downstream)) >= 30

    def test_salvage_disabled_loses_stranded_packets(self):
        config = ViFiConfig(relay_enabled=False, salvage_enabled=False)
        with_salvage = make_sim(self._switch_table(), [1, 2],
                                config=ViFiConfig(relay_enabled=False),
                                seed=43)
        _, got_with = delivered_seqs(with_salvage)
        self._drive_through_switch(with_salvage)
        without = make_sim(self._switch_table(), [1, 2], config=config,
                           seed=43)
        _, got_without = delivered_seqs(without)
        self._drive_through_switch(without)
        assert without.stats.salvage_requests == 0
        assert len(set(got_with)) > len(set(got_without))

    def test_salvaged_packets_flagged(self):
        sim = make_sim(self._switch_table(), [1, 2],
                       config=ViFiConfig(relay_enabled=False), seed=43)
        self._drive_through_switch(sim)
        salvaged = [p for p in sim.stats.packet_records.values()
                    if p.salvaged]
        assert salvaged


class TestAccounting:
    def test_efficiency_bounded(self):
        sim = make_sim(full_mesh([1, 2], vehicle_loss=0.3), [1, 2],
                       seed=47)
        sim.run(until=8.0)
        for seq in range(100):
            sim.send_upstream(("u", seq), 300, flow_id=1, seq=seq)
            sim.send_downstream(("d", seq), 300, flow_id=2, seq=seq)
        sim.run(until=30.0)
        for direction in (Direction.UPSTREAM, Direction.DOWNSTREAM):
            eff = sim.efficiency(direction)
            assert 0.0 < eff <= 1.0

    def test_perfect_relay_dominates_vifi_upstream(self):
        sim = make_sim(full_mesh([1, 2, 3], vehicle_loss=0.4), [1, 2, 3],
                       seed=53)
        sim.run(until=8.0)
        for seq in range(150):
            sim.send_upstream(("u", seq), 300, flow_id=1, seq=seq)
        sim.run(until=40.0)
        vifi_eff = sim.efficiency(Direction.UPSTREAM)
        pr_eff, _, _ = perfect_relay_efficiency(sim.stats,
                                                Direction.UPSTREAM)
        assert pr_eff >= vifi_eff

    def test_coordination_report_structure(self):
        sim = make_sim(full_mesh([1, 2], vehicle_loss=0.3), [1, 2],
                       seed=59)
        sim.run(until=8.0)
        for seq in range(50):
            sim.send_upstream(("u", seq), 300, flow_id=1, seq=seq)
        sim.run(until=20.0)
        report = sim.stats.coordination_report(Direction.UPSTREAM)
        rows = report.rows()
        assert len(rows) == 10
        assert report.n_source_tx >= 50
        assert 0 <= report.src_tx_success_rate <= 1
        assert report.src_tx_failure_rate == pytest.approx(
            1.0 - report.src_tx_success_rate)


class TestConfig:
    def test_variants(self):
        base = ViFiConfig()
        brr = base.brr_variant()
        assert not brr.relay_enabled and not brr.salvage_enabled
        assert base.relay_enabled  # original untouched
        div = base.diversity_only_variant()
        assert div.relay_enabled and not div.salvage_enabled

    def test_beacons_per_second(self):
        """The estimator bank divides each second's heard beacons by
        the rate the nodes actually beacon at."""
        sim = make_sim(full_mesh([1, 2]), [1, 2])
        sim.run(until=60.0)
        rate = sim.ctx.estimator_bank.beacons_per_second
        for node_id in (VEHICLE, 1, 2):
            sent = sim.medium.tx_count[(node_id, "beacon")]
            assert sent / 60.0 == pytest.approx(rate, abs=0.5)
