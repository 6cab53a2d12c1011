"""Flow routing and the CBR probe workload.

:class:`FlowRouter` multiplexes multiple application flows over one
:class:`~repro.core.protocol.ViFiSimulation` (whose sinks are single
callbacks) by dispatching on ``flow_id``.

:class:`CbrWorkload` reproduces the link-layer measurement workload of
Sections 3.1 and 5.2: "the van and a remote computer attached to the
wired network send a 500-byte packet to each other every 100 ms."  Its
output feeds the session analysis of Figure 7.  It is also the stream
machinery of :class:`~repro.apps.voip.VoipStream`, which sends smaller
packets more often and judges them per window.
"""

import numpy as np

from repro.apps.sessions import ADEQUATE_WINDOW_S, window_ratios

__all__ = ["CbrWorkload", "FlowRouter"]


class FlowRouter:
    """Dispatch per-flow delivery callbacks over a protocol run."""

    #: Side constants for handler registration.
    VEHICLE = "vehicle"
    WIRED = "wired"

    def __init__(self, protocol):
        self.protocol = protocol
        self._vehicle_handlers = {}
        self._wired_handlers = {}
        protocol.set_downstream_sink(self._on_vehicle_delivery)
        protocol.set_upstream_sink(self._on_wired_delivery)

    def register(self, flow_id, side, handler):
        """Route deliveries of *flow_id* on *side* to *handler*.

        The handler signature is ``handler(packet, delivered_at)``.
        """
        table = self._table_for(side)
        if flow_id in table:
            raise ValueError(f"flow {flow_id} already registered on {side}")
        table[flow_id] = handler

    def unregister(self, flow_id, side):
        self._table_for(side).pop(flow_id, None)

    def _table_for(self, side):
        if side == self.VEHICLE:
            return self._vehicle_handlers
        if side == self.WIRED:
            return self._wired_handlers
        raise ValueError(f"unknown side {side!r}")

    def _on_vehicle_delivery(self, packet, delivered_at):
        handler = self._vehicle_handlers.get(packet.flow_id)
        if handler is not None:
            handler(packet, delivered_at)

    def _on_wired_delivery(self, packet, delivered_at):
        handler = self._wired_handlers.get(packet.flow_id)
        if handler is not None:
            handler(packet, delivered_at)


class CbrWorkload:
    """Bidirectional constant-bit-rate probes over a protocol run.

    Args:
        protocol: a started (or startable) ViFiSimulation.
        router: the shared :class:`FlowRouter`.
        interval_s: packet spacing (default 0.1 s, as the paper states).
        size_bytes: packet size (default 500, as the paper states).
        flow_base: two flow ids are used: ``flow_base`` (upstream) and
            ``flow_base + 1`` (downstream).
    """

    #: Payload tags of the two legs; packet *seq* carries
    #: ``(tag, seq)``.
    UP_TAG = "cbr-up"
    DOWN_TAG = "cbr-down"

    def __init__(self, protocol, router, interval_s=0.1, size_bytes=500,
                 flow_base=10):
        self.protocol = protocol
        self.interval = float(interval_s)
        self.size_bytes = int(size_bytes)
        self.up_flow = flow_base
        self.down_flow = flow_base + 1
        self._seq = 0
        self.sent_times = {}
        self.up_deliveries = {}   # seq -> delivered_at
        self.down_deliveries = {}
        self._started_at = None
        self._stopped_at = None
        router.register(self.up_flow, FlowRouter.WIRED, self._up_delivered)
        router.register(self.down_flow, FlowRouter.VEHICLE,
                        self._down_delivered)

    # -- driving ---------------------------------------------------------

    def start(self, at_time):
        self._started_at = float(at_time)
        self.protocol.sim.schedule_at(self._started_at, self._tick)

    def stop(self, at_time):
        self._stopped_at = float(at_time)

    def _tick(self):
        now = self.protocol.sim.now
        if self._stopped_at is not None and now >= self._stopped_at:
            return
        seq = self._seq
        self._seq += 1
        self.sent_times[seq] = now
        self.protocol.send_upstream((self.UP_TAG, seq), self.size_bytes,
                                    flow_id=self.up_flow, seq=seq)
        self.protocol.send_downstream((self.DOWN_TAG, seq), self.size_bytes,
                                      flow_id=self.down_flow, seq=seq)
        self.protocol.sim.schedule(self.interval, self._tick)

    def _up_delivered(self, packet, delivered_at):
        self.up_deliveries.setdefault(packet.seq, delivered_at)

    def _down_delivered(self, packet, delivered_at):
        self.down_deliveries.setdefault(packet.seq, delivered_at)

    # -- analysis ----------------------------------------------------------

    @property
    def packets_sent(self):
        return self._seq

    def window_reception_ratio(self, window_s=ADEQUATE_WINDOW_S,
                               deadline_s=None):
        """Combined per-window reception ratio, as in the trace study.

        A packet counts toward the window in which it was *sent*; with
        ``deadline_s`` set, deliveries later than the deadline do not
        count (interactive traffic has no use for stale packets).

        Returns:
            Float array of per-window combined reception ratios.

        Raises:
            ValueError: if *window_s* rounds to no probe.
        """
        return window_ratios(self._on_time(self.up_deliveries, deadline_s),
                             self._on_time(self.down_deliveries, deadline_s),
                             int(round(window_s / self.interval)))

    def _on_time(self, deliveries, deadline_s):
        """Per-probe flags: delivered, within *deadline_s* if set."""
        flags = np.zeros(self._seq, dtype=bool)
        for seq, arrival in deliveries.items():
            flags[seq] = deadline_s is None \
                or arrival - self.sent_times[seq] <= deadline_s
        return flags

    def delivery_rate(self):
        """Fraction of probes delivered, pooled over both directions."""
        if self._seq == 0:
            return 0.0
        delivered = len(self.up_deliveries) + len(self.down_deliveries)
        return delivered / (2.0 * self._seq)
