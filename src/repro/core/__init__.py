"""ViFi: the paper's primary contribution (Section 4).

ViFi minimizes connectivity disruptions for vehicular WiFi clients by
exploiting basestation diversity: the vehicle designates an *anchor*
BS (chosen with BRR) and treats every other BS it hears as an
*auxiliary*.  Auxiliaries that opportunistically overhear a data packet
but not its acknowledgment relay the packet probabilistically, with the
relay probabilities computed so the *expected* number of relayed copies
across all auxiliaries is one, preferring auxiliaries better connected
to the destination.

Package layout:

* :mod:`repro.core.relaying` — relay-probability computation: the ViFi
  formulation (guidelines G1-G3, Eqs. 1-3) and the three ablations of
  Section 5.5.1 (each violates one guideline).
* :mod:`repro.core.probabilities` — beacon-based estimation and
  dissemination of pairwise reception probabilities (Section 4.6).
* :mod:`repro.core.retransmit` — the adaptive retransmission timer
  (99th percentile of observed ack delays, Section 4.7).
* :mod:`repro.core.node` — the vehicle and basestation protocol
  engines, including salvaging (Section 4.5).
* :mod:`repro.core.protocol` — experiment wiring: medium, backplane,
  nodes, Internet gateway, and the application-facing API.
* :mod:`repro.core.stats` — per-transmission logs and the Table 1
  coordination statistics.
* :mod:`repro.core.perfect` — the PerfectRelay oracle estimated from
  ViFi logs (Section 5.4).
"""
