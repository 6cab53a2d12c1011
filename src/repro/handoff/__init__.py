"""Handoff policy study (Section 3 of the paper).

Six handoff strategies, all in :mod:`repro.handoff.policies`, are
evaluated trace-driven over broadcast-probe traces:

* practical hard handoff: ``RssiPolicy``, ``BrrPolicy``,
  ``StickyPolicy``, ``HistoryPolicy``;
* oracle hard handoff: ``BestBsPolicy`` (knows the future second);
* oracle macrodiversity: ``AllBsesPolicy`` (uses every BS at once).

:mod:`repro.handoff.evaluator` replays a policy against a
:class:`~repro.testbeds.traces.ProbeTrace` and reports delivered
packets; :mod:`repro.apps.sessions` turns them into periods of
uninterrupted connectivity.
"""
