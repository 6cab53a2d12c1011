"""Trace-driven evaluation of handoff policies (Section 3.1).

The evaluation replays a broadcast-probe trace against a policy: "The
policy determines which BS a client associates with at a given time.
The client can communicate with only the associated BS when using a
hard handoff policy.  We assume that clients have a workload that
mirrors our trace traffic; i.e., they wish to send and receive packets
every 100 ms.  The traces of broadcast packets and the current
association determine which packets are successfully received."

Association decisions are made once per second; the probe outcomes of
the chosen BS during that second determine delivery.  AllBSes is
special-cased: a slot succeeds if any BS's probe got through.
"""

import numpy as np

from repro.apps.sessions import (
    ADEQUATE_RATIO,
    ADEQUATE_WINDOW_S,
    window_ratios,
)

__all__ = ["PolicyOutcome", "evaluate_policy"]


class PolicyOutcome:
    """Result of replaying one policy over one trace.

    Attributes:
        policy_name: name of the evaluated policy.
        slot_dt: trace slot duration (s).
        up_delivered / down_delivered: bool arrays over evaluated slots.
        association: int array ``[n_secs]`` of chosen bs_ids (-1 = none).
    """

    def __init__(self, policy_name, slot_dt, up_delivered, down_delivered,
                 association):
        self.policy_name = policy_name
        self.slot_dt = float(slot_dt)
        self.up_delivered = np.asarray(up_delivered, dtype=bool)
        self.down_delivered = np.asarray(down_delivered, dtype=bool)
        self.association = np.asarray(association, dtype=int)

    @property
    def n_slots(self):
        return len(self.up_delivered)

    @property
    def slots_per_second(self):
        return int(round(1.0 / self.slot_dt))

    @property
    def packets_delivered(self):
        """Total packets delivered, both directions."""
        return int(self.up_delivered.sum() + self.down_delivered.sum())

    @property
    def handoff_count(self):
        """Number of association changes (ignoring unassociated gaps)."""
        assoc = self.association[self.association >= 0]
        if len(assoc) < 2:
            return 0
        return int((np.diff(assoc) != 0).sum())

    def window_reception_ratio(self, interval_s=ADEQUATE_WINDOW_S):
        """Combined (up+down) reception ratio per window of *interval_s*."""
        return window_ratios(self.up_delivered, self.down_delivered,
                             int(round(interval_s * self.slots_per_second)))

    def adequate_windows(self, interval_s=ADEQUATE_WINDOW_S,
                         min_ratio=ADEQUATE_RATIO):
        """Boolean adequacy per window (the paper's Section 3.3 notion)."""
        return self.window_reception_ratio(interval_s) >= min_ratio


def evaluate_policy(trace, policy):
    """Replay *policy* over *trace* and return a :class:`PolicyOutcome`.

    The contract with the policy: for each second, :meth:`choose` is
    called first (deciding the association for that second), then
    :meth:`observe` delivers the second's beacon measurements (the
    trace's :attr:`~repro.testbeds.traces.ProbeTrace.observations`,
    which every replay shares).
    Practical policies therefore act on the past only; BestBS's
    :meth:`choose` indexes the future second by design.
    """
    policy.reset()
    if policy.needs_future:
        policy.attach_trace(trace)

    sps = trace.slots_per_second
    n_secs = trace.n_slots // sps
    n_eval_slots = n_secs * sps
    up = trace.up[:n_eval_slots]
    down = trace.down[:n_eval_slots]
    observations = trace.observations

    up_delivered = np.zeros(n_eval_slots, dtype=bool)
    down_delivered = np.zeros(n_eval_slots, dtype=bool)
    association = np.full(n_secs, -1, dtype=int)
    col_of = {bs: j for j, bs in enumerate(trace.bs_ids)}

    for sec in range(n_secs):
        lo, hi = sec * sps, (sec + 1) * sps
        if policy.uses_all_bs:
            up_delivered[lo:hi] = up[lo:hi].any(axis=1)
            down_delivered[lo:hi] = down[lo:hi].any(axis=1)
        else:
            chosen = policy.choose()
            if chosen is not None:
                j = col_of[chosen]
                association[sec] = chosen
                up_delivered[lo:hi] = up[lo:hi, j]
                down_delivered[lo:hi] = down[lo:hi, j]
        policy.observe(observations[sec])

    return PolicyOutcome(
        policy_name=policy.name,
        slot_dt=trace.slot_dt,
        up_delivered=up_delivered,
        down_delivered=down_delivered,
        association=association,
    )
