"""Experiment orchestration: one module per group of paper artifacts.

:mod:`~repro.experiments.study` (Figures 2-6), ``linklayer`` (7, 8),
``tcpbench`` (9, 10), ``voipbench`` (11), ``efficiency`` (12),
``coordination`` (Tables 1, 2) and ``validation`` (Section 5.1)
regenerate the data behind their artifacts; ``common`` holds the
shared builders and the ``run_trips`` sweep runner.  Each artifact's
driver call at benchmark scale is its entry in :mod:`repro.figures`,
which the benchmarks (``benchmarks/bench_<artifact>.py``) and the
``python -m repro`` CLI read.  Nothing is re-exported here, so
importing one module loads only what it needs.
"""
