"""Packet-level logs and coordination statistics (Table 1).

Every source transmission, overhearing event, relay decision and
delivery is recorded here by the protocol engines.  From these logs we
derive:

* Table 1's per-direction coordination statistics (rows A1-C4);
* the medium-usage efficiency of Figure 12 (application packets
  delivered per transmission on the vehicle-BS channel);
* the PerfectRelay oracle estimate (Section 5.4), which reuses the
  same logs.

Definitions follow Section 5.5 exactly: the *false positive* rate is
"relayed packets that are already present at the destination divided by
the number of successful source transmissions" (it can exceed 100%),
and the *false negative* rate is "the number of times no auxiliary
relays a failed transmission divided by the number of failed source
transmissions".
"""

import statistics
from dataclasses import dataclass, field

from repro.net.packet import Direction

__all__ = ["CoordinationReport", "PacketRecord", "TxRecord", "ViFiStats"]


@dataclass
class TxRecord:
    """One *source* transmission (original or source retransmission)."""

    tx_id: int
    pkt_key: tuple
    direction: Direction
    time: float
    src: int
    dst: int
    aux_designated: tuple
    heard_by_dst: bool = False
    heard_by_aux: set = field(default_factory=set)
    relays: list = field(default_factory=list)  # aux ids that relayed


@dataclass
class PacketRecord:
    """Per-packet (per pkt_key) fate across all transmissions."""

    pkt_key: tuple
    direction: Direction
    created_at: float
    size_bytes: int = 0
    source_tx_count: int = 0
    first_dst_receive: float | None = None
    delivered: bool = False
    acked_at_src: bool = False
    relay_count: int = 0
    relay_delivered: int = 0
    aux_heard_ack: set = field(default_factory=set)
    salvaged: bool = False
    given_up: bool = False


class ViFiStats:
    """Collector for all packet-level protocol events."""

    def __init__(self):
        self.tx_records = {}
        self.packet_records = {}
        self.relay_decisions = []  # (pkt_key, aux_id, probability, relayed)
        self.salvage_requests = 0
        self.salvaged_packets = 0
        self.anchor_changes = 0

    # ------------------------------------------------------------------
    # Event ingestion (called by nodes)
    # ------------------------------------------------------------------

    def packet_record(self, pkt_key, direction, created_at, size_bytes=0):
        record = self.packet_records.get(pkt_key)
        if record is None:
            record = PacketRecord(pkt_key, direction, created_at,
                                  size_bytes=size_bytes)
            self.packet_records[pkt_key] = record
        return record

    def on_source_tx(self, tx_id, pkt_key, direction, time, src, dst,
                     aux_designated):
        self.tx_records[tx_id] = TxRecord(
            tx_id=tx_id,
            pkt_key=pkt_key,
            direction=direction,
            time=time,
            src=src,
            dst=dst,
            aux_designated=tuple(aux_designated),
        )
        record = self.packet_record(pkt_key, direction, time)
        record.source_tx_count += 1

    def on_dst_receive(self, tx_id, pkt_key, time, via_relay):
        record = self.packet_records.get(pkt_key)
        if record is not None:
            if record.first_dst_receive is None:
                record.first_dst_receive = time
            record.delivered = True
            if via_relay:
                record.relay_delivered += 1
        if not via_relay and tx_id in self.tx_records:
            self.tx_records[tx_id].heard_by_dst = True

    def on_aux_overhear(self, tx_id, aux_id):
        tx = self.tx_records.get(tx_id)
        if tx is not None and aux_id in tx.aux_designated:
            tx.heard_by_aux.add(aux_id)

    def on_aux_heard_ack(self, pkt_key, aux_id):
        record = self.packet_records.get(pkt_key)
        if record is not None:
            record.aux_heard_ack.add(aux_id)

    def on_relay_decision(self, pkt_key, aux_id, probability, relayed,
                          trigger_tx_id=None):
        self.relay_decisions.append((pkt_key, aux_id, probability, relayed))
        if relayed:
            record = self.packet_records.get(pkt_key)
            if record is not None:
                record.relay_count += 1
            if trigger_tx_id is not None:
                tx = self.tx_records.get(trigger_tx_id)
                if tx is not None:
                    tx.relays.append(aux_id)

    def on_src_ack(self, pkt_key):
        record = self.packet_records.get(pkt_key)
        if record is not None:
            record.acked_at_src = True

    def on_give_up(self, pkt_key):
        record = self.packet_records.get(pkt_key)
        if record is not None:
            record.given_up = True

    def on_salvage(self, n_packets):
        self.salvage_requests += 1
        self.salvaged_packets += n_packets

    def on_anchor_change(self):
        self.anchor_changes += 1

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    def _txs(self, direction):
        return [t for t in self.tx_records.values()
                if t.direction == direction]

    def coordination_report(self, direction):
        """The Table 1 rows for one direction."""
        txs = self._txs(direction)
        if not txs:
            return CoordinationReport(direction=direction)

        successful = [t for t in txs if t.heard_by_dst]
        failed = [t for t in txs if not t.heard_by_dst]

        # B2: relays already at the destination / successful src txs.
        false_positive_relays = sum(len(t.relays) for t in successful)
        fp_rate = (false_positive_relays / len(successful)
                   if successful else 0.0)
        fp_events = [t for t in successful if t.relays]
        fp_relays_per_event = (
            statistics.mean(len(t.relays) for t in fp_events)
            if fp_events else 0.0
        )

        # C3: of the failed transmissions that at least one auxiliary
        # overheard (row C2's population), how many drew zero relays.
        # The paper's 65%-relayed inference (C2 x (1 - C3)) pins this
        # conditioning.
        heard = [t for t in failed if t.heard_by_aux]
        no_relay_heard = [t for t in heard if not t.relays]
        fn_rate = len(no_relay_heard) / len(heard) if heard else 0.0

        packets = [p for p in self.packet_records.values()
                   if p.direction == direction]
        relayed_copies = sum(p.relay_count for p in packets)
        relayed_delivered = sum(p.relay_delivered for p in packets)

        return CoordinationReport(
            direction=direction,
            n_source_tx=len(txs),
            median_aux=statistics.median(
                len(t.aux_designated) for t in txs
            ),
            mean_aux_heard=statistics.mean(
                len(t.heard_by_aux) for t in txs
            ),
            mean_aux_heard_no_ack=statistics.mean(
                len(t.heard_by_aux
                    - self.packet_records[t.pkt_key].aux_heard_ack)
                if t.pkt_key in self.packet_records else len(t.heard_by_aux)
                for t in txs
            ),
            src_tx_success_rate=len(successful) / len(txs),
            false_positive_rate=fp_rate,
            relays_per_false_positive=fp_relays_per_event,
            src_tx_failure_rate=len(failed) / len(txs),
            failed_overheard_rate=(
                len(heard) / len(failed) if failed else 0.0
            ),
            false_negative_rate=fn_rate,
            relay_delivery_rate=(
                relayed_delivered / relayed_copies if relayed_copies else 0.0
            ),
        )

    def efficiency(self, direction, wireless_data_tx):
        """Application packets delivered per wireless data transmission.

        Args:
            direction: which direction to account.
            wireless_data_tx: number of data-frame transmissions on the
                vehicle-BS channel attributable to this direction
                (source transmissions incl. retransmissions, plus
                relayed copies for downstream; upstream relays ride the
                backplane and do not count).
        """
        delivered = sum(
            1 for p in self.packet_records.values()
            if p.direction == direction and p.delivered
        )
        if wireless_data_tx <= 0:
            return 0.0
        return delivered / wireless_data_tx


@dataclass
class CoordinationReport:
    """Table 1, one column (direction).

    Row mapping: A1 ``median_aux``; A2 ``mean_aux_heard``; A3
    ``mean_aux_heard_no_ack``; B1 ``src_tx_success_rate``; B2
    ``false_positive_rate``; B3 ``relays_per_false_positive``; C1
    ``src_tx_failure_rate``; C2 ``failed_overheard_rate``; C3
    ``false_negative_rate``; C4 ``relay_delivery_rate``.
    """

    direction: Direction = Direction.UPSTREAM
    n_source_tx: int = 0
    median_aux: float = 0.0
    mean_aux_heard: float = 0.0
    mean_aux_heard_no_ack: float = 0.0
    src_tx_success_rate: float = 0.0
    false_positive_rate: float = 0.0
    relays_per_false_positive: float = 0.0
    src_tx_failure_rate: float = 0.0
    failed_overheard_rate: float = 0.0
    false_negative_rate: float = 0.0
    relay_delivery_rate: float = 0.0

    def rows(self):
        """(label, value) pairs in the paper's Table 1 order."""
        return [
            ("A1 median auxiliary BSes", self.median_aux),
            ("A2 avg aux hearing source tx", self.mean_aux_heard),
            ("A3 avg aux hearing tx but not ack",
             self.mean_aux_heard_no_ack),
            ("B1 source tx reaching dst", self.src_tx_success_rate),
            ("B2 false positive relays / successful tx",
             self.false_positive_rate),
            ("B3 avg relays per false-positive event",
             self.relays_per_false_positive),
            ("C1 source tx not reaching dst", self.src_tx_failure_rate),
            ("C2 failed tx overheard by >=1 aux",
             self.failed_overheard_rate),
            ("C3 failed tx with zero relays (false negatives)",
             self.false_negative_rate),
            ("C4 relayed packets reaching dst", self.relay_delivery_rate),
        ]
