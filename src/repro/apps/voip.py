"""A G.729 VoIP stream over a protocol run (Section 5.3.2).

"Per the codec, we generate 20-byte packets every 20 ms" in both
directions.  Quality is judged per three-second window from the pooled
loss fraction (network losses plus late arrivals beyond the 52 ms
wireless budget) and the mouth-to-ear delay, via the R-factor model in
:mod:`repro.apps.mos`.
"""

import math

from repro.apps.mos import MosConfig, mos_score, voip_sessions
from repro.apps.workload import CbrWorkload

__all__ = ["VoipConfig", "VoipStream"]


class VoipConfig:
    """Stream parameters (paper defaults)."""

    def __init__(self, packet_interval_s=0.02, packet_size_bytes=20,
                 mos=None):
        self.packet_interval_s = float(packet_interval_s)
        self.packet_size_bytes = int(packet_size_bytes)
        self.mos = mos or MosConfig()

    def cache_token(self):
        """Store-key identity: every parameter that shapes a result.

        A plain class tokenizes by this hook (not per-field like a
        dataclass), so any new ``__init__`` parameter must be added
        here or the STORE-TOKEN contract is violated silently.
        """
        return ("voip-config", self.packet_interval_s,
                self.packet_size_bytes, self.mos)


class VoipStream(CbrWorkload):
    """Bidirectional voice stream with per-window MoS accounting.

    The stream machinery is :class:`~repro.apps.workload.CbrWorkload`'s,
    run at the codec's packet interval and size with ``voice-`` payload
    tags.

    Args:
        protocol: the ViFiSimulation to ride on.
        router: the shared :class:`~repro.apps.workload.FlowRouter`.
        config: a :class:`VoipConfig`.
        flow_base: uses ``flow_base`` (upstream leg) and
            ``flow_base + 1`` (downstream leg).
    """

    UP_TAG = "voice-up"
    DOWN_TAG = "voice-down"

    def __init__(self, protocol, router, config=None, flow_base=20):
        self.config = config or VoipConfig()
        super().__init__(protocol, router,
                         interval_s=self.config.packet_interval_s,
                         size_bytes=self.config.packet_size_bytes,
                         flow_base=flow_base)

    # -- quality analysis -------------------------------------------------------

    def window_quality(self):
        """Per-3-second-window ``(mos, loss_fraction, delay_ms)`` tuples.

        A packet is effectively lost when undelivered or when its
        wireless one-way delay exceeds the 52 ms budget; on-time
        packets contribute their wireless delay to the window's
        mouth-to-ear estimate (fixed components + mean wireless delay).
        """
        mos_cfg = self.config.mos
        if self._started_at is None or self._seq == 0:
            return []
        budget_s = mos_cfg.wireless_budget_ms / 1000.0
        per_window = int(round(
            mos_cfg.window_s / self.config.packet_interval_s
        ))
        n_windows = self._seq // per_window
        windows = []
        for w in range(n_windows):
            total = 0
            lost = 0
            delays = []
            for seq in range(w * per_window, (w + 1) * per_window):
                sent = self.sent_times[seq]
                for table in (self.up_deliveries, self.down_deliveries):
                    total += 1
                    arrival = table.get(seq)
                    if arrival is None or (arrival - sent) > budget_s:
                        lost += 1
                    else:
                        delays.append((arrival - sent) * 1000.0)
            loss_fraction = lost / total if total else 1.0
            wireless_ms = (
                math.fsum(delays) / len(delays) if delays
                else mos_cfg.wireless_budget_ms
            )
            delay_ms = mos_cfg.fixed_delay_ms + wireless_ms
            windows.append(
                (mos_score(delay_ms, loss_fraction), loss_fraction, delay_ms)
            )
        return windows

    def session_lengths(self):
        """Uninterrupted-session lengths (seconds), per the paper's rule."""
        mos_values = [m for m, _, _ in self.window_quality()]
        return voip_sessions(
            mos_values,
            window_s=self.config.mos.window_s,
            threshold=self.config.mos.interruption_mos,
        )

    def mean_mos(self):
        """Average of the per-window MoS scores."""
        quality = self.window_quality()
        if not quality:
            return 1.0
        return math.fsum(m for m, _, _ in quality) / len(quality)
