"""The PerfectRelay oracle (Section 5.4).

"In the PerfectRelay protocol, exactly one basestation relays only if
the intended destination did not hear the packet.  We estimate its
efficiency using packet-level logs of ViFi."

Per the paper's estimation rules:

* **Upstream**: a packet is considered delivered if at least one BS
  heard any of its source transmissions: the destination, or any other
  BS that overheard it, whether or not it was designated an auxiliary
  (``TxRecord.overheard``); relays ride the backplane, so the wireless
  transmission count is just the source's.
* **Downstream**: when at least one auxiliary relayed the packet in the
  ViFi run, PerfectRelay's single relay is assumed to have the same
  outcome as ViFi's relaying; when no auxiliary relayed (but at least
  one overheard), the relaying is assumed successful.  The wireless
  transmission count charges the source transmissions plus exactly one
  relay per packet that needed one.
"""

from repro.net.packet import Direction

__all__ = ["perfect_relay_efficiency"]


def _tx_by_packet(stats, direction):
    """Group source-transmission records by packet key."""
    grouped = {}
    for tx in stats.tx_records.values():
        if tx.direction == direction:
            grouped.setdefault(tx.pkt_key, []).append(tx)
    return grouped


def perfect_relay_efficiency(stats, direction):
    """Estimate PerfectRelay's delivery efficiency from ViFi logs.

    Args:
        stats: the :class:`~repro.core.stats.ViFiStats` of a ViFi run.
        direction: :class:`~repro.net.packet.Direction` to account.

    Returns:
        ``(efficiency, delivered, wireless_tx)`` — application packets
        delivered per wireless data transmission under the oracle, plus
        the numerator and denominator.
    """
    grouped = _tx_by_packet(stats, direction)
    delivered = 0
    wireless_tx = 0
    for pkt_key, txs in grouped.items():
        record = stats.packet_records.get(pkt_key)
        source_tx = len(txs)
        wireless_tx += source_tx
        heard_direct = any(t.heard_by_dst for t in txs)
        if direction is Direction.UPSTREAM:
            # Backplane relays are free on the wireless medium.
            if heard_direct or any(t.overheard for t in txs):
                delivered += 1
            continue
        heard_by_any_aux = any(t.heard_by_aux for t in txs)
        # Downstream: charge one relay when the oracle needs one.
        if heard_direct:
            delivered += 1
            continue
        if not heard_by_any_aux:
            continue  # nobody could have relayed
        wireless_tx += 1
        vifi_relayed = record is not None and record.relay_count > 0
        if vifi_relayed:
            if record.relay_delivered > 0:
                delivered += 1
        else:
            # ViFi chose not to relay; the paper assumes the oracle's
            # relay would have succeeded.
            delivered += 1
    efficiency = delivered / wireless_tx if wireless_tx else 0.0
    return efficiency, delivered, wireless_tx
