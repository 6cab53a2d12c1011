"""Adaptive retransmission timing (Section 4.7).

"Acknowledgments in ViFi may be delayed if they are generated in
response to a relayed packet ... thus retransmission timers must be set
based on current network conditions.  The ViFi source sets the
retransmit timer adaptively based on the observed delays in receiving
acknowledgments ... The source then picks as the minimum retransmission
time the 99th percentile of measured delays.  Picking this high
percentile means that sources err towards waiting longer when
conditions change rather than retransmitting spuriously."
"""

import bisect
from collections import deque

__all__ = ["AdaptiveRetxTimer"]


class AdaptiveRetxTimer:
    """Tracks ack delays; yields the 99th-percentile retransmit timeout.

    A bounded window of the most recent delay samples is kept in sorted
    order (insertion via bisect), so sample ingestion is O(window).
    Each sample also recomputes the percentile, which is then stored:
    the timeout is read on every transmission, more often than samples
    arrive, and changes only when one does.

    The defaults are the source's timer.  The paper states its 99th
    percentile; the initial value, the 12 ms floor and the window are
    engineering choices.  An auxiliary's ack-wait window is the other
    instance, with values of its own (:mod:`repro.core.node`).

    Args:
        initial_s: timeout before any sample has been observed.
        floor_s: lower bound on the timeout regardless of samples (an
            ack can never be faster than two frame airtimes).
        percentile: percentile of observed delays to use (paper: 99).
        window: number of recent samples retained.
    """

    def __init__(self, initial_s=0.08, floor_s=0.012, percentile=99.0,
                 window=500):
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.initial = float(initial_s)
        self.floor = float(floor_s)
        self.percentile = float(percentile)
        self.window = int(window)
        self._sorted = []
        self._fifo = deque()
        self._timeout = max(self.initial, self.floor)

    def add_sample(self, delay_s):
        """Record one observed transmission-to-ack delay."""
        if delay_s < 0:
            raise ValueError("ack delay cannot be negative")
        delay_s = float(delay_s)
        ordered = self._sorted
        self._fifo.append(delay_s)
        bisect.insort(ordered, delay_s)
        if len(self._fifo) > self.window:
            oldest = self._fifo.popleft()
            ordered.pop(bisect.bisect_left(ordered, oldest))
        rank = min(int(len(ordered) * self.percentile / 100.0),
                   len(ordered) - 1)
        self._timeout = max(ordered[rank], self.floor)

    @property
    def sample_count(self):
        return len(self._fifo)

    def timeout(self):
        """Current retransmission timeout (seconds)."""
        return self._timeout
