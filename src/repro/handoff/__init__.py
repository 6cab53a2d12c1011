"""Handoff policy study (Section 3 of the paper).

Six handoff strategies evaluated trace-driven over broadcast-probe
traces:

* practical hard handoff: :class:`RssiPolicy`, :class:`BrrPolicy`,
  :class:`StickyPolicy`, :class:`HistoryPolicy`;
* oracle hard handoff: :class:`BestBsPolicy` (knows the future second);
* oracle macrodiversity: :class:`AllBsesPolicy` (uses every BS at once).

:mod:`repro.handoff.evaluator` replays a policy against a
:class:`~repro.testbeds.traces.ProbeTrace` and reports delivered
packets; :mod:`repro.handoff.sessions` extracts periods of
uninterrupted connectivity under configurable definitions of "adequate
connectivity" (averaging interval and minimum reception ratio).
"""

from repro.handoff.base import HandoffPolicy, PerSecondObservation
from repro.handoff.evaluator import PolicyOutcome, evaluate_policy
from repro.handoff.policies import (
    AllBsesPolicy,
    BestBsPolicy,
    BrrPolicy,
    HistoryPolicy,
    RssiPolicy,
    StickyPolicy,
)
from repro.handoff.sessions import (
    session_lengths,
    time_in_sessions_cdf,
    time_weighted_median_session,
)

__all__ = [
    "AllBsesPolicy",
    "BestBsPolicy",
    "BrrPolicy",
    "HandoffPolicy",
    "HistoryPolicy",
    "PerSecondObservation",
    "PolicyOutcome",
    "RssiPolicy",
    "StickyPolicy",
    "evaluate_policy",
    "session_lengths",
    "time_in_sessions_cdf",
    "time_weighted_median_session",
]
