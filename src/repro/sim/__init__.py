"""Discrete-event simulation substrate.

This package provides the event-driven core that every packet-level
experiment in the reproduction runs on: a deterministic event loop
(:mod:`repro.sim.engine`) and named, seeded random-number streams
(:mod:`repro.sim.rng`).

The paper's packet-level results were produced with QualNet; this engine
is our stand-in.  It is deliberately small: a binary-heap scheduler with
cancellable events and a monotonically advancing clock.
"""
