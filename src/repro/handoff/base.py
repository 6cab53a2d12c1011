"""Handoff policy interface.

A handoff policy decides, once per second, which basestation the client
associates with for the *next* second.  Policies receive only what a
real client could observe — beacons heard in the elapsed second, their
RSSI, and (for History) position — except the two oracle policies,
which declare :attr:`HandoffPolicy.needs_future` and receive the trace.

The per-second grain follows the paper: BestBS re-associates "at the
beginning of each one-second period", and both RSSI and BRR average
beacon observations with an exponential factor of one half per update.
"""

from dataclasses import dataclass

__all__ = ["HandoffPolicy", "PerSecondObservation"]


@dataclass
class PerSecondObservation:
    """What the client observed during one second of the trace.

    Attributes:
        second: index of the elapsed second.
        beacons_heard: mapping bs_id -> beacons decoded this second.
        beacons_expected: nominal beacons per second (10).
        mean_rssi: mapping bs_id -> mean RSSI of decoded beacons; BSes
            with no decoded beacon are absent.
        position: vehicle (x, y) at the end of the second.
    """

    second: int
    beacons_heard: dict
    beacons_expected: int
    mean_rssi: dict
    position: tuple


class HandoffPolicy:
    """Base class for association policies.

    Subclasses implement :meth:`observe` (digest one second of
    measurements) and :meth:`choose` (pick the BS for the next second).
    The evaluator calls them in strict alternation, so policies may
    keep running state.
    """

    #: Name used in result tables.
    name = "base"

    #: True for oracle policies that receive the trace via
    #: :meth:`attach_trace` before evaluation.
    needs_future = False

    #: True for policies that use every BS at once (AllBSes); the
    #: evaluator special-cases packet accounting for them.
    uses_all_bs = False

    def __init__(self):
        self.reset()

    def reset(self):
        """Clear state before a fresh trace replay."""

    def attach_trace(self, trace):
        """Give oracle policies the full trace.  No-op by default."""

    def observe(self, observation):
        """Digest one second of beacon measurements."""

    def choose(self):
        """Return the bs_id to associate with next, or ``None``."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"
