"""Distribution helpers: CDFs and confidence intervals.

"All error bars in the graphs below represent 95% confidence
intervals" (Section 5.1) — computed here with the normal approximation
for means.
"""

import math

import numpy as np

__all__ = ["empirical_cdf", "mean_confidence_interval"]

#: Two-sided 97.5% normal quantile, for the paper's 95% intervals.
_Z95 = 1.959963984540054


def empirical_cdf(values):
    """Empirical CDF of a sample.

    Returns:
        ``(xs, ys)`` — sorted values and cumulative probabilities in
        (0, 1]; empty input yields empty arrays.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    if xs.size == 0:
        return xs, xs
    ys = np.arange(1, xs.size + 1) / xs.size
    return xs, ys


def mean_confidence_interval(values):
    """Mean and half-width of its 95% normal-approximation CI.

    Returns:
        ``(mean, half_width)``; half_width is 0 for samples of size
        one or less.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return mean, _Z95 * sem
