"""Application models (Section 5.3): VoIP and short TCP transfers.

* :mod:`repro.apps.mos` — the Cole-Rosenbluth R-factor / Mean Opinion
  Score model the paper uses to judge VoIP quality, the paper's delay
  budget, and session lengths between interruptions (MoS < 2 over a
  three-second window).
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

from repro.apps.mos import mos_from_r, r_factor, voip_sessions
from repro.apps.tcp import TcpWorkload
from repro.apps.voip import VoipStream
from repro.apps.workload import CbrWorkload, FlowRouter

__all__ = [
    "CbrWorkload",
    "FlowRouter",
    "TcpWorkload",
    "VoipStream",
    "mos_from_r",
    "r_factor",
    "voip_sessions",
]
