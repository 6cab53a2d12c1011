"""A G.729 VoIP stream over a protocol run (Section 5.3.2).

"Per the codec, we generate 20-byte packets every 20 ms" in both
directions.  Quality is judged per three-second window from the pooled
loss fraction (network losses plus late arrivals beyond the 52 ms
wireless budget) and the mouth-to-ear delay, via the R-factor model in
:mod:`repro.apps.mos`.
"""

import math

from repro.apps.mos import (
    FIXED_DELAY_MS,
    INTERRUPTION_MOS,
    WINDOW_S,
    WIRELESS_BUDGET_MS,
    mos_score,
)
from repro.apps.sessions import session_lengths
from repro.apps.workload import CbrWorkload

__all__ = ["VoipStream"]

#: The codec's packet spacing (seconds) and size (bytes), as the paper
#: states them.
PACKET_INTERVAL_S = 0.02
PACKET_SIZE_BYTES = 20


class VoipStream(CbrWorkload):
    """Bidirectional voice stream with per-window MoS accounting.

    The stream machinery is :class:`~repro.apps.workload.CbrWorkload`'s,
    run at the codec's packet interval and size with ``voice-`` payload
    tags on flows 20 (upstream) and 21 (downstream).

    Args:
        protocol: the ViFiSimulation to ride on.
        router: the shared :class:`~repro.apps.workload.FlowRouter`.
    """

    UP_TAG = "voice-up"
    DOWN_TAG = "voice-down"

    def __init__(self, protocol, router):
        super().__init__(protocol, router, interval_s=PACKET_INTERVAL_S,
                         size_bytes=PACKET_SIZE_BYTES, flow_base=20)

    # -- quality analysis -------------------------------------------------------

    def window_quality(self):
        """Per-3-second-window ``(mos, loss_fraction, delay_ms)`` tuples.

        A packet is effectively lost when undelivered or when its
        wireless one-way delay exceeds the 52 ms budget; on-time
        packets contribute their wireless delay to the window's
        mouth-to-ear estimate (fixed components + mean wireless delay).
        """
        if self._started_at is None or self._seq == 0:
            return []
        budget_s = WIRELESS_BUDGET_MS / 1000.0
        per_window = int(round(WINDOW_S / self.interval))
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
                else WIRELESS_BUDGET_MS
            )
            delay_ms = FIXED_DELAY_MS + wireless_ms
            windows.append(
                (mos_score(delay_ms, loss_fraction), loss_fraction, delay_ms)
            )
        return windows

    def session_lengths(self):
        """Uninterrupted-session lengths (seconds), per the paper's rule:
        runs of :data:`~repro.apps.mos.WINDOW_S` windows whose MoS is at
        least :data:`~repro.apps.mos.INTERRUPTION_MOS`."""
        return session_lengths(
            [m >= INTERRUPTION_MOS for m, _, _ in self.window_quality()],
            window_s=WINDOW_S)

    def mean_mos(self):
        """Average of the per-window MoS scores."""
        quality = self.window_quality()
        if not quality:
            return 1.0
        return math.fsum(m for m, _, _ in quality) / len(quality)
