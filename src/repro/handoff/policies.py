"""The six handoff policies of Section 3.1.

Four practical policies (RSSI, BRR, Sticky, History) and two oracles
(BestBS, AllBSes).  All hard-handoff policies associate with exactly
one BS at a time; AllBSes uses every BS opportunistically and upper
bounds any handoff protocol.
"""

import math

from repro.handoff.base import HandoffPolicy

__all__ = [
    "AllBsesPolicy",
    "BestBsPolicy",
    "BrrPolicy",
    "HistoryPolicy",
    "RssiPolicy",
    "StickyPolicy",
]

#: RSSI's and BRR's exponential averaging factor, as the paper states
#: it (one half, Section 3.1).
ALPHA = 0.5
#: Sticky's silence timeout (s), as the paper states it.
STICKY_TIMEOUT_S = 3
#: Engineering choices: the seconds after which RSSI forgets an unheard
#: BS, the average below which BRR forgets a BS, and the side (m) of
#: History's square location cells.
RSSI_STALE_S = 3
BRR_FORGET_BELOW = 0.01
HISTORY_CELL_M = 25.0


class RssiPolicy(HandoffPolicy):
    """Associate to the BS with the highest exponentially averaged RSSI.

    "This policy is similar to what many clients, including the NICs in
    our testbed, use currently in infrastructure WiFi networks."  The
    averaging factor is one half (Section 3.1).  A BS unheard for
    :data:`RSSI_STALE_S` consecutive seconds is forgotten, since a
    stale RSSI average says nothing about current reachability.
    """

    name = "RSSI"

    def reset(self):
        self._avg = {}
        self._last_heard = {}

    def observe(self, observation):
        for bs, rssi in observation.mean_rssi.items():
            if bs in self._avg:
                self._avg[bs] = ALPHA * rssi + (1 - ALPHA) * self._avg[bs]
            else:
                self._avg[bs] = rssi
            self._last_heard[bs] = observation.second
        stale = [
            bs for bs, last in self._last_heard.items()
            if observation.second - last >= RSSI_STALE_S
        ]
        for bs in stale:
            del self._avg[bs]
            del self._last_heard[bs]

    def choose(self):
        if not self._avg:
            return None
        return max(self._avg.items(), key=lambda kv: (kv[1], -kv[0]))[0]


class BrrPolicy(HandoffPolicy):
    """Associate to the BS with the highest averaged beacon reception ratio.

    "Inspired by wireless routing protocols that are based on the
    reception ratio of probes" (ETX-style).  Unlike RSSI, silence is
    informative: a known BS that is not heard contributes a zero sample,
    so its average decays naturally.
    """

    name = "BRR"

    def reset(self):
        self._avg = {}

    def observe(self, observation):
        ratios = {
            bs: heard / observation.beacons_expected
            for bs, heard in observation.beacons_heard.items()
        }
        for bs in set(self._avg) | set(ratios):
            sample = ratios.get(bs, 0.0)
            if bs in self._avg:
                self._avg[bs] = ALPHA * sample + (1 - ALPHA) * self._avg[bs]
            else:
                self._avg[bs] = ALPHA * sample
        # Forget BSes whose average has decayed to noise.
        for bs in [b for b, v in self._avg.items() if v < BRR_FORGET_BELOW]:
            del self._avg[bs]

    def choose(self):
        if not self._avg:
            return None
        return max(self._avg.items(), key=lambda kv: (kv[1], -kv[0]))[0]


class StickyPolicy(HandoffPolicy):
    """Stay with the current BS until it is silent for a timeout.

    "The client does not disassociate from the current BS until
    connectivity is absent for a pre-defined time period, set to three
    seconds in our evaluation.  Once disassociated, the client picks
    the BS with the highest signal strength."  (Used in the CarTel
    study.)
    """

    name = "Sticky"

    def reset(self):
        self._current = None
        self._silent_for = 0
        self._last_rssi = {}

    def observe(self, observation):
        self._last_rssi = dict(observation.mean_rssi)
        if self._current is not None:
            if observation.beacons_heard.get(self._current, 0) > 0:
                self._silent_for = 0
            else:
                self._silent_for += 1
                if self._silent_for >= STICKY_TIMEOUT_S:
                    self._current = None
                    self._silent_for = 0
        if self._current is None and self._last_rssi:
            self._current = max(
                self._last_rssi.items(), key=lambda kv: (kv[1], -kv[0])
            )[0]

    def choose(self):
        return self._current


class HistoryPolicy(HandoffPolicy):
    """Associate to the historically best BS for the current location.

    "The client associates to the BS that has historically provided the
    best average performance at that location.  Performance is measured
    as the sum of reception ratios in the two directions, and the
    average is computed across traversals of the location in the
    previous day."  (After MobiSteer.)

    Call :meth:`train` with the previous day's probe traces before
    evaluating.  Locations are square grid cells of
    :data:`HISTORY_CELL_M` metres.
    """

    name = "History"

    def __init__(self):
        self._scores = {}
        super().__init__()

    def reset(self):
        self._position = None
        self._fallback_rssi = {}

    def _bin(self, x, y):
        return (int(math.floor(x / HISTORY_CELL_M)),
                int(math.floor(y / HISTORY_CELL_M)))

    def train(self, traces):
        """Learn per-location BS scores from previous-day traces."""
        sums = {}
        counts = {}
        for trace in traces:
            up_rr, down_rr = trace.per_second_reception()
            sps = trace.slots_per_second
            n_secs = up_rr.shape[0]
            for sec in range(n_secs):
                x, y = trace.positions[min(sec * sps, trace.n_slots - 1)]
                cell = self._bin(x, y)
                for j, bs in enumerate(trace.bs_ids):
                    key = (cell, bs)
                    sums[key] = sums.get(key, 0.0) + (
                        up_rr[sec, j] + down_rr[sec, j]
                    )
                    counts[key] = counts.get(key, 0) + 1
        self._scores = {}
        for key, total in sums.items():
            cell, bs = key
            self._scores.setdefault(cell, {})[bs] = total / counts[key]

    def observe(self, observation):
        self._position = observation.position
        self._fallback_rssi = dict(observation.mean_rssi)

    def choose(self):
        if self._position is not None:
            cell = self._bin(*self._position)
            scores = self._scores.get(cell)
            if scores:
                best = max(scores.items(), key=lambda kv: (kv[1], -kv[0]))
                if best[1] > 0:
                    return best[0]
        # Untrained location: fall back to the strongest current beacon.
        if self._fallback_rssi:
            return max(
                self._fallback_rssi.items(), key=lambda kv: (kv[1], -kv[0])
            )[0]
        return None


class BestBsPolicy(HandoffPolicy):
    """Oracle hard handoff: the best BS of the *future* second.

    "At the beginning of each one-second period, the client associates
    to the BS that provides the best performance in the future one
    second ... the sum of reception ratios in the two directions.  This
    method is not practical because clients cannot reliably predict
    future performance."  It upper-bounds hard handoff.
    """

    name = "BestBS"
    needs_future = True

    def reset(self):
        self._scores = None
        self._bs_ids = None
        self._second = 0

    def attach_trace(self, trace):
        up_rr, down_rr = trace.per_second_reception()
        self._scores = up_rr + down_rr
        self._bs_ids = list(trace.bs_ids)
        self._second = 0

    def observe(self, observation):
        self._second = observation.second + 1

    def choose(self):
        if self._scores is None or self._second >= len(self._scores):
            return None
        row = self._scores[self._second]
        best = int(row.argmax())
        if row[best] <= 0:
            return None
        return self._bs_ids[best]


class AllBsesPolicy(HandoffPolicy):
    """Oracle macrodiversity: use every BS in the vicinity at once.

    "A transmission by the client is considered successful if at least
    one BS receives the packet.  In the downstream direction, if the
    client hears a packet from at least one BS in an 100-ms interval,
    the packet is considered as delivered."  Upper-bounds *any* handoff
    protocol.
    """

    name = "AllBSes"
    needs_future = True
    uses_all_bs = True

    def choose(self):
        return None
