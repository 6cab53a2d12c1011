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

from repro.analysis.aggregate import packets_per_day_by_density
from repro.analysis.burstiness import conditional_loss_curve
from repro.analysis.cdf import empirical_cdf, mean_confidence_interval
from repro.analysis.conditional import two_bs_conditionals
from repro.analysis.diversity import visible_bs_stats

__all__ = [
    "conditional_loss_curve",
    "empirical_cdf",
    "mean_confidence_interval",
    "packets_per_day_by_density",
    "two_bs_conditionals",
    "visible_bs_stats",
]
