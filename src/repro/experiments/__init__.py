"""Experiment orchestration: one module per group of paper artifacts.

:mod:`~repro.experiments.study` (Figures 2-6), ``linklayer`` (7, 8),
``tcpbench`` (9, 10), ``voipbench`` (11), ``efficiency`` (12),
``coordination`` (Tables 1, 2) and ``validation`` (Section 5.1)
regenerate the data behind their artifacts; ``common`` holds the
shared builders and the ``run_trips`` sweep runner.  The benchmarks
(``benchmarks/bench_<artifact>.py``), the examples and the
``python -m repro`` CLI are thin wrappers around them.  Nothing is
re-exported here, so importing one module loads only what it needs.
"""
