"""Basestation diversity: the Figure 5 visible-BS distributions.

"The graphs plot the CDF of the number of BSes from which the vehicles
hear beacons in one-second intervals" — with two visibility notions:
at least one beacon heard (Figure 5a) and at least 50% of beacons
heard (Figure 5b).  :func:`repro.experiments.study.diversity_cdfs`
pools the per-second counts into the CDF and histogram; this module
summarizes a histogram.
"""

import numpy as np

__all__ = ["visible_bs_stats"]


def visible_bs_stats(histogram):
    """Summary of a visible-BS histogram, one second per count.

    Returns:
        ``(p_zero, median, p_two_plus)``: the fraction of seconds with
        no BS visible, the median count and the fraction with two or
        more.
    """
    counts = np.repeat(np.arange(len(histogram)), histogram)
    return (
        float((counts == 0).mean()),
        float(np.median(counts)),
        float((counts >= 2).mean()),
    )
