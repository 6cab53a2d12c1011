"""Network substrate: frames, loss processes, radio links, media.

This package models everything between a protocol engine and the
airwaves:

* :mod:`repro.net.packet` — the frame types exchanged over the air
  (data, bitmap acknowledgments, beacons).
* :mod:`repro.net.channel` — packet-loss processes, including the
  Gilbert-Elliott bursty channel the measurement study motivates and a
  trace-driven process for the paper's DieselNet methodology.
* :mod:`repro.net.propagation` — log-distance path loss, lognormal
  shadowing, gray periods, and RSSI synthesis, all evaluated by one
  :class:`~repro.net.propagation.LinkBank` per run.
* :mod:`repro.net.mobility` — waypoint routes, each a vehicle's
  motion.
* :mod:`repro.net.medium` — the shared broadcast wireless medium.
* :mod:`repro.net.backplane` — the bandwidth-limited inter-BS wired
  plane that upstream relays and salvaging traverse.
"""
