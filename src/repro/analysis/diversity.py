"""Basestation diversity: the Figure 5 visible-BS distributions.

"The graphs plot the CDF of the number of BSes from which the vehicles
hear beacons in one-second intervals" — with two visibility notions:
at least one beacon heard (Figure 5a) and at least 50% of beacons
heard (Figure 5b).
"""

import numpy as np

from repro.analysis.cdf import empirical_cdf

__all__ = ["visible_bs_cdf", "visible_bs_histogram", "visible_bs_stats"]


def visible_bs_histogram(beacon_log, min_ratio=None, max_count=None):
    """Histogram of per-second visible-BS counts.

    Args:
        beacon_log: a :class:`~repro.testbeds.traces.BeaconLog`.
        min_ratio: ``None`` for the >=1-beacon notion, else the
            minimum per-second beacon reception ratio (0.5 in Fig. 5b).
        max_count: histogram length (defaults to the BS population).

    Returns:
        Integer array ``h`` with ``h[k]`` = seconds in which exactly
        *k* BSes were visible.
    """
    counts = beacon_log.visible_counts(min_ratio)
    top = beacon_log.n_bs if max_count is None else int(max_count)
    return np.bincount(counts, minlength=top + 1)[: top + 1]


def visible_bs_cdf(beacon_log, min_ratio=None):
    """CDF of per-second visible-BS counts (one Figure 5 curve).

    Returns:
        ``(xs, ys)`` — BS counts and cumulative fraction of seconds.
    """
    return empirical_cdf(beacon_log.visible_counts(min_ratio))


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
