"""Frame types exchanged over the simulated media.

Three frames matter to ViFi (Section 4 of the paper):

* :class:`DataPacket` — an application packet carrying a unique
  identifier so that acknowledgments are never confused with an earlier
  transmission (Section 4.7).
* :class:`Ack` — a broadcast acknowledgment.  ViFi's implementation adds
  a one-byte bitmap that reports which of the eight packets preceding
  the acked one were *not* received, saving spurious retransmissions
  when acks are lost (Section 4.8).
* :class:`Beacon` — periodic broadcast carrying the vehicle's current
  anchor / auxiliary designations and the reception-probability reports
  that auxiliaries need to compute relay probabilities (Sections 4.3
  and 4.6).

All frames are plain dataclasses; the medium treats them as opaque
payloads plus a size.
"""

import enum
from dataclasses import dataclass, field

__all__ = [
    "Ack",
    "Beacon",
    "DataPacket",
    "Direction",
    "FRAME_KIND_VALUES",
    "FrameKind",
    "ACK_SIZE_BYTES",
    "BEACON_BASE_SIZE_BYTES",
]

#: Size of an acknowledgment frame on the air, bytes (header + bitmap).
ACK_SIZE_BYTES = 40

#: Fixed part of a beacon frame; per-report bytes are added on top.
BEACON_BASE_SIZE_BYTES = 60

#: Bytes added to a beacon per embedded reception-probability report.
BEACON_REPORT_SIZE_BYTES = 3


class Direction(enum.Enum):
    """Direction of an application packet relative to the vehicle."""

    UPSTREAM = "up"
    DOWNSTREAM = "down"


class FrameKind(enum.Enum):
    DATA = "data"
    ACK = "ack"
    BEACON = "beacon"


#: Frame-kind values in ``kind_index`` order: each frame class's
#: ``kind_index`` is its kind's position here, so per-kind counters can
#: be list slots (the medium's count rows) instead of dict keys.
FRAME_KIND_VALUES = tuple(kind.value for kind in FrameKind)


@dataclass(slots=True)
class DataPacket:
    """An application data packet.

    Attributes:
        pkt_id: unique identifier (never reused across retransmissions
            of *different* payloads; a retransmission reuses the id so
            acks match).
        src: originating node id (vehicle or anchor BS).
        dst: intended destination node id.
        direction: upstream (vehicle to anchor) or downstream.
        size_bytes: on-air size.
        flow_id: application flow this packet belongs to.
        seq: per-flow sequence number (used by the TCP/VoIP models).
        created_at: simulation time the packet entered the sender queue.
        tx_id: unique identifier of this *transmission* — regenerated on
            every source (re)transmission so "acknowledgments are not
            confused with an earlier transmission" (Section 4.7);
            relayed copies keep the tx_id of the overheard transmission
            so ack-delay samples span the full relay path.
        relayed_by: id of the auxiliary BS that relayed this copy, or
            ``None`` for an original / source-retransmitted copy.
        salvaged: True if the packet reached its current holder through
            the salvaging path (Section 4.5).
        payload: opaque application reference (e.g. a TCP segment).
    """

    pkt_id: int
    src: int
    dst: int
    direction: Direction
    size_bytes: int = 500
    flow_id: int = 0
    seq: int = 0
    created_at: float = 0.0
    tx_id: int = -1
    relayed_by: int | None = None
    salvaged: bool = False
    payload: object = None

    kind = FrameKind.DATA
    kind_index = 0  # position in FRAME_KIND_VALUES

    def relay_copy(self, relayer_id):
        """Return the copy of this packet an auxiliary relays."""
        return DataPacket(
            pkt_id=self.pkt_id,
            src=self.src,
            dst=self.dst,
            direction=self.direction,
            size_bytes=self.size_bytes,
            flow_id=self.flow_id,
            seq=self.seq,
            created_at=self.created_at,
            tx_id=self.tx_id,
            relayed_by=relayer_id,
            salvaged=self.salvaged,
            payload=self.payload,
        )


@dataclass(slots=True)
class Ack:
    """Broadcast acknowledgment with ViFi's 8-packet history bitmap.

    Attributes:
        pkt_id: identifier of the packet being acknowledged.
        acker: node id broadcasting the ack.
        for_src: node id whose packet is acknowledged (so bystanders can
            attribute the ack).
        missing_bitmap: 8-bit mask; bit *k* set means packet
            ``pkt_id - 1 - k`` from the same source was NOT received.
        tx_id: transmission id echoed from the (possibly relayed) data
            copy that triggered this ack; the source uses it to compute
            ack-delay samples for the adaptive retransmission timer.
    """

    pkt_id: int
    acker: int
    for_src: int
    missing_bitmap: int = 0
    tx_id: int = -1
    size_bytes: int = ACK_SIZE_BYTES

    kind = FrameKind.ACK
    kind_index = 1


@dataclass(slots=True)
class Beacon:
    """Periodic broadcast beacon.

    Vehicle beacons designate the anchor and auxiliaries and name the
    previous anchor for salvaging.  All beacons carry reception
    probability reports: ``incoming`` maps peer id to the estimated
    delivery probability *peer -> sender*, and ``learned`` carries the
    sender's second-hand knowledge ``(a, b) -> p(a delivers to b)``.

    Attributes:
        sender: node id of the beaconing node.
        sent_at: simulation timestamp of transmission.
        anchor_id: current anchor (vehicle beacons only, else ``None``).
        aux_ids: tuple of auxiliary BS ids (vehicle beacons only).
        prev_anchor_id: previous anchor for salvaging, or ``None``.
        incoming: first-hand reception probability reports.
        learned: second-hand reports relayed from other nodes' beacons.
    """

    sender: int
    sent_at: float = 0.0
    anchor_id: int | None = None
    aux_ids: tuple = ()
    prev_anchor_id: int | None = None
    incoming: dict = field(default_factory=dict)
    learned: dict = field(default_factory=dict)

    kind = FrameKind.BEACON
    kind_index = 2

    @property
    def size_bytes(self):
        reports = len(self.incoming) + len(self.learned)
        return BEACON_BASE_SIZE_BYTES + BEACON_REPORT_SIZE_BYTES * reports
