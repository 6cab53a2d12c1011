"""Unit tests for the statistics collector and PerfectRelay estimation."""

import pytest

from repro.core.perfect import perfect_relay_efficiency
from repro.core.stats import ViFiStats
from repro.net.packet import Direction

UP = Direction.UPSTREAM
DOWN = Direction.DOWNSTREAM


def record_tx(stats, tx_id, pkt, direction=UP, aux=(2, 3), t=0.0):
    stats.on_source_tx(tx_id=tx_id, pkt_key=(0, pkt), direction=direction,
                       time=t, src=0, dst=1, aux_designated=aux,
                       created_at=t)


class TestTable1Rows:
    def test_success_and_failure_rates(self):
        stats = ViFiStats()
        for i in range(10):
            record_tx(stats, tx_id=i, pkt=i)
        for i in range(7):
            stats.on_dst_receive(i, (0, i), 0.01, via_relay=False)
        report = stats.coordination_report(UP)
        assert report.src_tx_success_rate == pytest.approx(0.7)
        assert report.src_tx_failure_rate == pytest.approx(0.3)

    def test_false_positive_definition_can_exceed_one(self):
        """B2 is a count ratio: relays on successful tx / successes."""
        stats = ViFiStats()
        record_tx(stats, tx_id=1, pkt=0)
        stats.on_dst_receive(1, (0, 0), 0.01, via_relay=False)
        # Two auxiliaries both relay the already-delivered packet.
        stats.on_relay_decision((0, 0), 2, 0.9, True, trigger_tx_id=1)
        stats.on_relay_decision((0, 0), 3, 0.9, True, trigger_tx_id=1)
        report = stats.coordination_report(UP)
        assert report.false_positive_rate == pytest.approx(2.0)
        assert report.relays_per_false_positive == pytest.approx(2.0)

    def test_false_negative_conditioned_on_overhearing(self):
        stats = ViFiStats()
        # Failed and overheard, no relay -> false negative.
        record_tx(stats, tx_id=1, pkt=0)
        stats.on_aux_overhear(1, 2)
        # Failed but NOT overheard: excluded from C3's population.
        record_tx(stats, tx_id=2, pkt=1)
        report = stats.coordination_report(UP)
        assert report.failed_overheard_rate == pytest.approx(0.5)
        assert report.false_negative_rate == pytest.approx(1.0)

    def test_relay_delivery_rate(self):
        stats = ViFiStats()
        record_tx(stats, tx_id=1, pkt=0)
        stats.on_aux_overhear(1, 2)
        stats.on_relay_decision((0, 0), 2, 1.0, True, trigger_tx_id=1)
        stats.on_dst_receive(1, (0, 0), 0.05, via_relay=True)
        report = stats.coordination_report(UP)
        assert report.relay_delivery_rate == pytest.approx(1.0)

    def test_aux_overhear_requires_designation(self):
        stats = ViFiStats()
        record_tx(stats, tx_id=1, pkt=0, aux=(2,))
        stats.on_aux_overhear(1, 9)  # undesignated BS
        report = stats.coordination_report(UP)
        assert report.mean_aux_heard == 0.0

    def test_directions_isolated(self):
        stats = ViFiStats()
        record_tx(stats, tx_id=1, pkt=0, direction=UP)
        record_tx(stats, tx_id=2, pkt=0, direction=DOWN)
        stats.on_dst_receive(2, (0, 0), 0.01, via_relay=False)
        up = stats.coordination_report(UP)
        down = stats.coordination_report(DOWN)
        assert up.n_source_tx == 1
        assert down.n_source_tx == 1

    def test_empty_report(self):
        report = ViFiStats().coordination_report(UP)
        assert report.n_source_tx == 0
        assert report.rows()

    def test_repeated_overhears_and_acks_count_once(self):
        """An auxiliary that overhears one transmission twice and hears
        two acks of its packet counts once in A2 and not in A3; one
        that overhears twice and hears no ack counts once in both."""
        stats = ViFiStats()
        record_tx(stats, tx_id=1, pkt=0)
        for aux in (3, 2, 3, 2):
            stats.on_aux_overhear(1, aux)
        stats.on_aux_heard_ack((0, 0), 2)
        stats.on_aux_heard_ack((0, 0), 2)
        tx = stats.tx_records[1]
        record = stats.packet_records[(0, 0)]
        assert tx.heard_by_aux == (3, 2)
        assert record.aux_heard_ack == (2,)
        report = stats.coordination_report(UP)
        assert report.mean_aux_heard == 2.0
        assert report.mean_aux_heard_no_ack == 1.0

    def test_records_are_slotted(self):
        stats = ViFiStats()
        record_tx(stats, tx_id=1, pkt=0)
        stats.on_relay_decision((0, 0), 2, 1.0, True, trigger_tx_id=1)
        stats.on_relay_decision((0, 0), 2, 1.0, True, trigger_tx_id=1)
        tx = stats.tx_records[1]
        assert tx.relays == (2, 2)
        for record in (tx, stats.packet_records[(0, 0)]):
            assert not hasattr(record, "__dict__")


class TestEfficiency:
    def test_efficiency_counts_unique_deliveries(self):
        stats = ViFiStats()
        for i in range(4):
            record_tx(stats, tx_id=i, pkt=i)
        # Packet 0 delivered twice (dup); packets 1, 2 delivered once.
        stats.on_dst_receive(0, (0, 0), 0.01, via_relay=False)
        stats.on_dst_receive(0, (0, 0), 0.02, via_relay=True)
        stats.on_dst_receive(1, (0, 1), 0.01, via_relay=False)
        stats.on_dst_receive(2, (0, 2), 0.01, via_relay=False)
        assert stats.efficiency(UP, wireless_data_tx=6) == \
            pytest.approx(3 / 6)

    def test_zero_transmissions(self):
        assert ViFiStats().efficiency(UP, 0) == 0.0


class TestPerfectRelay:
    def test_upstream_counts_any_bs_hearing(self):
        stats = ViFiStats()
        # pkt 0: direct success; pkt 1: only aux heard; pkt 2: nobody.
        record_tx(stats, tx_id=1, pkt=0)
        stats.on_dst_receive(1, (0, 0), 0.0, via_relay=False)
        record_tx(stats, tx_id=2, pkt=1)
        stats.on_aux_overhear(2, 2)
        record_tx(stats, tx_id=3, pkt=2)
        eff, delivered, tx = perfect_relay_efficiency(stats, UP)
        assert delivered == 2
        assert tx == 3  # relays ride the backplane, not the air
        assert eff == pytest.approx(2 / 3)

    def test_upstream_counts_bs_outside_snapshot(self):
        """A BS the vehicle had not designated when it transmitted (it
        acts on newer designations) still heard the packet: the
        oracle delivers it, while Table 1's heard_by_aux stays empty."""
        stats = ViFiStats()
        record_tx(stats, tx_id=1, pkt=0, aux=(2,))
        stats.on_aux_overhear(1, 9)
        record_tx(stats, tx_id=2, pkt=1, aux=(2,))
        stats.on_aux_overhear(2, 2, designated=False)
        eff, delivered, tx = perfect_relay_efficiency(stats, UP)
        assert delivered == 2
        assert tx == 2
        assert not stats.tx_records[1].heard_by_aux
        assert not stats.tx_records[2].heard_by_aux
        assert stats.coordination_report(UP).mean_aux_heard == 0.0

    def test_downstream_charges_needed_relays(self):
        stats = ViFiStats()
        # pkt 0: direct success (1 tx).
        record_tx(stats, tx_id=1, pkt=0, direction=DOWN)
        stats.on_dst_receive(1, (0, 0), 0.0, via_relay=False)
        # pkt 1: failed direct, aux heard, ViFi relayed and delivered
        # (1 tx + 1 relay).
        record_tx(stats, tx_id=2, pkt=1, direction=DOWN)
        stats.on_aux_overhear(2, 2)
        stats.on_relay_decision((0, 1), 2, 1.0, True, trigger_tx_id=2)
        stats.on_dst_receive(2, (0, 1), 0.05, via_relay=True)
        # pkt 2: failed direct, aux heard, ViFi did NOT relay: oracle
        # assumes its single relay succeeds (1 tx + 1 relay).
        record_tx(stats, tx_id=3, pkt=2, direction=DOWN)
        stats.on_aux_overhear(3, 2)
        eff, delivered, tx = perfect_relay_efficiency(stats, DOWN)
        assert delivered == 3
        assert tx == 5
        assert eff == pytest.approx(3 / 5)

    def test_downstream_failed_vifi_relay_counts_as_failed(self):
        stats = ViFiStats()
        record_tx(stats, tx_id=1, pkt=0, direction=DOWN)
        stats.on_aux_overhear(1, 2)
        stats.on_relay_decision((0, 0), 2, 1.0, True, trigger_tx_id=1)
        # The relayed copy never reached the vehicle.
        eff, delivered, tx = perfect_relay_efficiency(stats, DOWN)
        assert delivered == 0
        assert tx == 2


class TestCounters:
    def test_salvage_and_anchor_counters(self):
        stats = ViFiStats()
        stats.on_salvage(3)
        stats.on_salvage(0)
        stats.on_anchor_change()
        assert stats.salvage_requests == 2
        assert stats.salvaged_packets == 3
        assert stats.anchor_changes == 1

    def test_give_up_marks_record(self):
        stats = ViFiStats()
        record_tx(stats, tx_id=1, pkt=0)
        stats.on_give_up((0, 0))
        assert stats.packet_records[(0, 0)].given_up
