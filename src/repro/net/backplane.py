"""The bandwidth-limited inter-BS wired backplane.

ViFi explicitly targets deployments where "inter-BS communication tends
to be based on relatively thin broadband links or a multi-hop wireless
mesh" (Section 4.1), unlike enterprise-WLAN diversity systems that
assume a high-capacity LAN.  Upstream relays and salvage transfers
traverse this plane; the protocol's claim is that it "places little
additional demand" on it.

The model: every BS has a wired uplink of ``bandwidth_bps``; a message
from one BS to another is serialized on the sender's uplink (FIFO) and
arrives after a propagation ``latency_s``.  The backplane is reliable
(it is wired) but counts every byte per category so experiments can
report the relaying/salvaging load that Section 5.4 discusses.

Degraded operation (the fault plane, :mod:`repro.sim.faults`): a BS
may be *partitioned* (temporarily unreachable over the wire), and the
plane-wide latency can spike by a multiplier.  Messages to or from an
unreachable BS (partitioned, or never connected) are dropped silently
and counted in ``dropped`` — the wired plane is best-effort under
faults, and the protocol's recovery path is end-to-end source
retransmission, never an exception out of the relay/salvage machinery.
"""

__all__ = ["Backplane"]


class Backplane:
    """Wired inter-BS message plane with per-sender FIFO serialization.

    Args:
        sim: the simulator.
        bandwidth_bps: per-BS uplink capacity (default 1 Mbps — "thin
            broadband"; an engineering choice, as is the latency).
        latency_s: one-way propagation + switching latency.
    """

    def __init__(self, sim, bandwidth_bps=1_000_000.0, latency_s=0.01):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.bandwidth = float(bandwidth_bps)
        self.latency = float(latency_s)
        #: Transient latency scaling (fault plane); 1.0 is nominal.
        self.latency_multiplier = 1.0
        self._members = set()
        self._partitioned = set()
        self._uplink_free_at = {}
        self.bytes_sent = {}
        self.messages_sent = {}
        #: Messages dropped per category because an endpoint was
        #: partitioned or never connected.
        self.dropped = {}

    def connect(self, bs_id):
        """Register a basestation on the backplane."""
        self._members.add(bs_id)
        self._uplink_free_at.setdefault(bs_id, 0.0)

    def partition(self, bs_id):
        """Cut *bs_id* off the wired plane without deregistering it."""
        self._partitioned.add(bs_id)

    def heal(self, bs_id):
        """Undo :meth:`partition`."""
        self._partitioned.discard(bs_id)

    def reachable(self, src, dst):
        """Whether a message from *src* can currently reach *dst*."""
        members, cut = self._members, self._partitioned
        return (src in members and dst in members
                and src not in cut and dst not in cut)

    def send(self, src, dst, payload, size_bytes, on_delivery,
             category="relay"):
        """Send *payload* from BS *src* to BS *dst*.

        Args:
            payload: opaque object handed to *on_delivery*.
            size_bytes: serialized size for bandwidth accounting.
            on_delivery: callable ``(payload) -> None`` invoked at the
                receiver when the message arrives.
            category: accounting bucket ("relay", "salvage",
                "forward", ...).

        Returns:
            The simulation time at which delivery will occur, or
            ``None`` when the message was dropped because either
            endpoint is partitioned or not on the backplane
            (counted in ``dropped``; the caller's recovery path is
            source retransmission, so no exception is raised).
        """
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        if not self.reachable(src, dst):
            self.dropped[category] = self.dropped.get(category, 0) + 1
            return None

        now = self.sim.now
        start = max(now, self._uplink_free_at[src])
        tx_done = start + size_bytes * 8.0 / self.bandwidth
        self._uplink_free_at[src] = tx_done
        arrival = tx_done + self.latency * self.latency_multiplier

        self.bytes_sent[category] = (
            self.bytes_sent.get(category, 0) + size_bytes
        )
        self.messages_sent[category] = self.messages_sent.get(category, 0) + 1

        self.sim.schedule_at(arrival, on_delivery, payload)
        return arrival

    def total_bytes(self, category=None):
        """Bytes sent, optionally restricted to one category."""
        if category is not None:
            return self.bytes_sent.get(category, 0)
        return sum(self.bytes_sent.values())
