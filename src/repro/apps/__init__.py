"""Application models (Section 5.3): VoIP and short TCP transfers.

* :mod:`repro.apps.sessions` — the session metric of Sections 3.3,
  5.2 and 5.3.2: per-window delivery ratios, the adequacy threshold,
  runs of adequate windows and their time-weighted median.
* :mod:`repro.apps.mos` — the Cole-Rosenbluth R-factor / Mean Opinion
  Score model the paper uses to judge VoIP quality, the paper's delay
  budget, and its interruption rule (MoS < 2 over a three-second
  window).
* :mod:`repro.apps.voip` — a G.729 voice stream (20-byte packets every
  20 ms, both directions) driven over a protocol run, with the paper's
  delay budget.
* :mod:`repro.apps.tcp` — a compact TCP implementation (slow start,
  AIMD, RTO, fast retransmit) used for repeated 10 KB transfers with a
  ten-second no-progress abort, plus session accounting.
* :mod:`repro.apps.workload` — flow routing over a
  :class:`~repro.core.protocol.ViFiSimulation` and the CBR probe
  workload used for link-layer experiments.
"""
