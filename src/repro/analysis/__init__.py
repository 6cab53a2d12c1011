"""Measurement-study analytics (Sections 3.3 and 3.4).

Pure computations over traces and delivery logs:

* :mod:`repro.analysis.cdf` — empirical CDFs and confidence
  intervals (the error bars on every figure).
* :mod:`repro.analysis.diversity` — the summary of a Figure 5
  visible-BS histogram.
* :mod:`repro.analysis.burstiness` — conditional loss curves
  ``P(loss i+k | loss i)`` (Figure 6a).
* :mod:`repro.analysis.conditional` — two-BS conditional reception
  probabilities (Figure 6b).
* :mod:`repro.analysis.aggregate` — packets-per-day aggregates across
  BS subsets (Figure 2).
"""
