"""A compact TCP for short transfers (Section 5.3.1).

The paper's workload: "The vehicle repeatedly fetches a 10 KB file from
a machine connected to the wired network and the machine does the same
in the other direction.  Transfers that make no progress for ten
seconds are terminated and started afresh."  Two performance measures:
the time to complete a transfer, and the number of completed transfers
per session, "where a session is a period of time in which no transfer
attempt was terminated due to a lack of progress."

The implementation is a single-flow TCP with the mechanisms that matter
at this scale: connection setup via a retransmitted request, slow
start / congestion avoidance, duplicate-ack fast retransmit, an RTO
with Karn's rule and exponential backoff (minimum one second — the
basis for ViFi's salvage threshold), and immediate acks.  Segments ride
the ViFi (or BRR) link layer, which retransmits each frame at most
``max_retx`` times underneath.
"""

import math
from dataclasses import dataclass, field

from repro.apps.workload import FlowRouter

__all__ = ["TcpConfig", "TcpTransfer", "TcpWorkload", "TransferResult"]


@dataclass
class TcpConfig:
    """Transfer and congestion-control parameters."""

    file_size_bytes: int = 10 * 1024
    mss: int = 1400
    header_bytes: int = 40
    request_bytes: int = 60
    init_cwnd_segments: int = 2
    init_ssthresh_bytes: int = 65536
    min_rto_s: float = 1.0
    max_rto_s: float = 16.0
    dupack_threshold: int = 3
    stall_timeout_s: float = 10.0


@dataclass
class TransferResult:
    """Outcome of one transfer attempt."""

    direction: str
    started_at: float
    finished_at: float
    completed: bool

    @property
    def duration(self):
        return self.finished_at - self.started_at


class _RtoEstimator:
    """RFC 6298 smoothed RTT with Karn's rule and a 1 s floor."""

    def __init__(self, min_rto, max_rto):
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt = None
        self.rttvar = None
        self.backoff = 1.0

    def sample(self, rtt):
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.backoff = 1.0

    def on_timeout(self):
        self.backoff = min(self.backoff * 2.0, 64.0)

    def rto(self):
        if self.srtt is None:
            base = self.min_rto
        else:
            base = self.srtt + max(4.0 * self.rttvar, 0.01)
        return min(max(base * self.backoff, self.min_rto), self.max_rto)


class _Sender:
    """Window-managed byte-stream sender half of a transfer."""

    def __init__(self, transfer, send, config, sim):
        self.transfer = transfer
        self.send = send  # callable(payload, size_bytes)
        self.config = config
        self.sim = sim
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = config.init_cwnd_segments * config.mss
        self.ssthresh = config.init_ssthresh_bytes
        self.dupacks = 0
        self.rto = _RtoEstimator(config.min_rto_s, config.max_rto_s)
        self._send_times = {}  # offset -> (time, retransmitted)
        self._rto_event = None
        self.done = False

    def pump(self):
        cfg = self.config
        while (not self.done
               and self.snd_nxt < cfg.file_size_bytes
               and self.snd_nxt - self.snd_una + cfg.mss <= self.cwnd):
            length = min(cfg.mss, cfg.file_size_bytes - self.snd_nxt)
            self._transmit(self.snd_nxt, length, retransmit=False)
            self.snd_nxt += length
        self._arm_rto()

    def _transmit(self, offset, length, retransmit):
        previous = self._send_times.get(offset)
        self._send_times[offset] = (
            self.sim.now, retransmit or (previous is not None
                                         and previous[1]),
        )
        if retransmit and previous is not None:
            self._send_times[offset] = (self.sim.now, True)
        self.send(("data", offset, length),
                  self.config.header_bytes + length)

    def on_ack(self, cum_bytes):
        cfg = self.config
        if cum_bytes > self.snd_una:
            entry = self._send_times.get(self.snd_una)
            if entry is not None and not entry[1]:
                self.rto.sample(self.sim.now - entry[0])
            # Retire timing state for fully acked segments.
            for offset in [o for o in self._send_times if o < cum_bytes]:
                del self._send_times[offset]
            self.snd_una = cum_bytes
            self.dupacks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += cfg.mss  # slow start
            else:
                self.cwnd += max(cfg.mss * cfg.mss // self.cwnd, 1)
            self.transfer.on_progress()
            if self.snd_una >= cfg.file_size_bytes:
                self.done = True
                self._cancel_rto()
                return
            self.pump()
        elif cum_bytes == self.snd_una and self.snd_nxt > self.snd_una:
            self.dupacks += 1
            if self.dupacks == cfg.dupack_threshold:
                flight = self.snd_nxt - self.snd_una
                self.ssthresh = max(flight // 2, 2 * cfg.mss)
                self.cwnd = self.ssthresh + cfg.dupack_threshold * cfg.mss
                length = min(cfg.mss, cfg.file_size_bytes - self.snd_una)
                self._transmit(self.snd_una, length, retransmit=True)
                self._arm_rto()

    def _arm_rto(self):
        self._cancel_rto()
        if self.done or self.snd_nxt == self.snd_una:
            return
        self._rto_event = self.sim.schedule(self.rto.rto(), self._on_rto)

    def _cancel_rto(self):
        if self._rto_event is not None and self._rto_event.active:
            self._rto_event.cancel()
        self._rto_event = None

    def _on_rto(self):
        if self.done or self.transfer.finished:
            return
        cfg = self.config
        flight = self.snd_nxt - self.snd_una
        self.ssthresh = max(flight // 2, 2 * cfg.mss)
        self.cwnd = cfg.mss
        self.dupacks = 0
        self.rto.on_timeout()
        length = min(cfg.mss, cfg.file_size_bytes - self.snd_una)
        self._transmit(self.snd_una, length, retransmit=True)
        self._arm_rto()


class _Receiver:
    """Reassembling receiver half; acks every arriving segment."""

    def __init__(self, transfer, send_ack, config):
        self.transfer = transfer
        self.send_ack = send_ack  # callable(payload, size_bytes)
        self.config = config
        self.rcv_next = 0
        self._out_of_order = {}
        self.done = False

    def on_data(self, offset, length):
        if offset == self.rcv_next:
            self.rcv_next += length
            while self.rcv_next in self._out_of_order:
                self.rcv_next += self._out_of_order.pop(self.rcv_next)
            self.transfer.on_progress()
        elif offset > self.rcv_next:
            self._out_of_order.setdefault(offset, length)
        self.send_ack(("ack", self.rcv_next), self.config.header_bytes)
        if self.rcv_next >= self.config.file_size_bytes and not self.done:
            self.done = True
            self.transfer.on_receiver_complete()


class TcpTransfer:
    """One 10 KB transfer attempt over a protocol run.

    Args:
        protocol: the ViFiSimulation.
        router: shared :class:`FlowRouter`.
        flow_id: unique flow id for this attempt.
        direction: ``"download"`` (wired -> vehicle) or ``"upload"``.
        config: a :class:`TcpConfig`.
        on_done: callable ``(TransferResult) -> None``.
    """

    def __init__(self, protocol, router, flow_id, direction, config,
                 on_done):
        if direction not in ("download", "upload"):
            raise ValueError(f"unknown direction {direction!r}")
        self.protocol = protocol
        self.router = router
        self.flow_id = flow_id
        self.direction = direction
        self.config = config
        self.on_done = on_done
        self.started_at = None
        self.finished = False
        self.last_progress = None
        self._request_event = None
        self._stall_event = None
        self.sender = None
        self.receiver = None

        if direction == "download":
            data_send = self._send_downstream
            ack_send = self._send_upstream
            data_side, ack_side = FlowRouter.VEHICLE, FlowRouter.WIRED
        else:
            data_send = self._send_upstream
            ack_send = self._send_downstream
            data_side, ack_side = FlowRouter.WIRED, FlowRouter.VEHICLE

        self._data_send = data_send
        self._ack_send = ack_send
        self.receiver = _Receiver(self, ack_send, config)
        self.sender = _Sender(self, data_send, config, protocol.sim)
        router.register(flow_id, data_side, self._on_data_side)
        router.register(flow_id, ack_side, self._on_ack_side)
        self._data_side, self._ack_side = data_side, ack_side

    # -- plumbing -------------------------------------------------------------

    def _send_upstream(self, payload, size):
        self.protocol.send_upstream(payload, size, flow_id=self.flow_id)

    def _send_downstream(self, payload, size):
        self.protocol.send_downstream(payload, size, flow_id=self.flow_id)

    def _on_data_side(self, packet, delivered_at):
        """Deliveries on the side that receives file data."""
        kind = packet.payload[0]
        if kind == "data":
            _, offset, length = packet.payload
            self.receiver.on_data(offset, length)

    def _on_ack_side(self, packet, delivered_at):
        """Deliveries on the side that sends file data."""
        kind = packet.payload[0]
        if kind == "req":
            if self.sender.snd_nxt == 0:
                self.on_progress()
                self.sender.pump()
        elif kind == "ack":
            self.sender.on_ack(packet.payload[1])

    # -- lifecycle --------------------------------------------------------------

    def start(self):
        now = self.protocol.sim.now
        self.started_at = now
        self.last_progress = now
        self._send_request()
        self._stall_event = self.protocol.sim.schedule(
            1.0, self._check_stall
        )

    def _send_request(self):
        if self.finished or self.sender.snd_nxt > 0:
            return
        # The request travels opposite to the data.
        self._ack_send(("req",), self.config.request_bytes)
        self._request_event = self.protocol.sim.schedule(
            self.config.min_rto_s, self._send_request
        )

    def on_progress(self):
        self.last_progress = self.protocol.sim.now

    def on_receiver_complete(self):
        self._finish(completed=True)

    def _check_stall(self):
        if self.finished:
            return
        now = self.protocol.sim.now
        if now - self.last_progress >= self.config.stall_timeout_s:
            self._finish(completed=False)
            return
        self._stall_event = self.protocol.sim.schedule(
            1.0, self._check_stall
        )

    def _finish(self, completed):
        if self.finished:
            return
        self.finished = True
        for event in (self._request_event, self._stall_event):
            if event is not None and event.active:
                event.cancel()
        self.sender.done = True
        self.sender._cancel_rto()
        self.router.unregister(self.flow_id, self._data_side)
        self.router.unregister(self.flow_id, self._ack_side)
        self.on_done(TransferResult(
            direction=self.direction,
            started_at=self.started_at,
            finished_at=self.protocol.sim.now,
            completed=completed,
        ))


class TcpWorkload:
    """Back-to-back transfers with session accounting (Figures 9/10).

    Args:
        protocol: the ViFiSimulation.
        router: shared :class:`FlowRouter`.
        config: :class:`TcpConfig`.
        directions: cycle of transfer directions (paper runs both).
        flow_base: first flow id; each attempt uses the next id.
    """

    def __init__(self, protocol, router, config=None,
                 directions=("download", "upload"), flow_base=1000):
        self.protocol = protocol
        self.router = router
        self.config = config or TcpConfig()
        self.directions = tuple(directions)
        self._next_flow = flow_base
        self._direction_index = 0
        self.results = []
        self._stopped_at = None

    def start(self, at_time):
        self.protocol.sim.schedule_at(at_time, self._launch_next)

    def stop(self, at_time):
        self._stopped_at = float(at_time)

    def _launch_next(self):
        now = self.protocol.sim.now
        if self._stopped_at is not None and now >= self._stopped_at:
            return
        direction = self.directions[
            self._direction_index % len(self.directions)
        ]
        self._direction_index += 1
        flow_id = self._next_flow
        self._next_flow += 1
        transfer = TcpTransfer(
            self.protocol, self.router, flow_id, direction, self.config,
            on_done=self._on_done,
        )
        transfer.start()

    def _on_done(self, result):
        self.results.append(result)
        self._launch_next()

    # -- metrics --------------------------------------------------------------

    @property
    def completed(self):
        return [r for r in self.results if r.completed]

    @property
    def aborted(self):
        return [r for r in self.results if not r.completed]

    def median_transfer_time(self):
        """Median completion time in seconds (Figure 9a)."""
        times = sorted(r.duration for r in self.completed)
        if not times:
            return math.inf
        return times[len(times) // 2]

    def transfers_per_session(self):
        """Mean completed transfers per session (Figure 9b).

        Sessions are delimited by aborted attempts; the trailing open
        session counts when it contains at least one completion.
        """
        sessions = []
        current = 0
        for result in self.results:
            if result.completed:
                current += 1
            else:
                sessions.append(current)
                current = 0
        if current:
            sessions.append(current)
        if not sessions:
            return 0.0
        return math.fsum(sessions) / len(sessions)
