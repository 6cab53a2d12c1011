"""Uninterrupted-connectivity sessions (Sections 3.3, 5.2 and 5.3.2).

The paper's interactive-application metric: a *session* is a maximal
run of consecutive windows with adequate connectivity.  For probe and
CBR traffic, adequacy means the combined (up plus down) reception
ratio within each window is at least a threshold, by default Section
3.3's :data:`ADEQUATE_RATIO` over :data:`ADEQUATE_WINDOW_S`; a VoIP
window is adequate while its MoS stays at or above the interruption
threshold of :mod:`repro.apps.mos`.  Figure 3(d) plots the CDF of
*time spent* in sessions of a given length; Figures 4 and 7 report
its median as the definitions vary.
"""

import numpy as np

__all__ = [
    "ADEQUATE_RATIO",
    "ADEQUATE_WINDOW_S",
    "adequacy_runs",
    "session_lengths",
    "time_in_sessions_cdf",
    "time_weighted_median_session",
    "window_ratios",
]

#: Adequate connectivity as Section 3.3 states it: a one-second window
#: that delivers at least half of its probes.
ADEQUATE_WINDOW_S = 1.0
ADEQUATE_RATIO = 0.5


def window_ratios(up, down, per_window):
    """Combined (up plus down) delivery ratio per window.

    Args:
        up / down: per-probe bool arrays of equal length, True where
            the probe was delivered.
        per_window: probes per window in each direction; a trailing
            partial window is dropped.

    Raises:
        ValueError: if a window holds no probe.
    """
    if per_window < 1:
        raise ValueError("window shorter than one probe")
    n_windows = len(up) // per_window
    size = n_windows * per_window
    up = np.asarray(up[:size], dtype=bool).reshape(n_windows, per_window)
    down = np.asarray(down[:size], dtype=bool).reshape(n_windows,
                                                       per_window)
    return (up.sum(axis=1) + down.sum(axis=1)) / (2.0 * per_window)


def adequacy_runs(adequate):
    """Maximal runs of True in a boolean sequence.

    Returns:
        List of ``(start_index, run_length)`` pairs.
    """
    runs = []
    start = None
    for i, flag in enumerate(adequate):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(adequate) - start))
    return runs


def session_lengths(adequate, window_s=ADEQUATE_WINDOW_S):
    """Session lengths in seconds from a per-window adequacy sequence."""
    return [length * window_s for _, length in adequacy_runs(adequate)]


def time_in_sessions_cdf(lengths):
    """The Figure 3(d) distribution: time spent in sessions by length.

    Args:
        lengths: session lengths in seconds.

    Returns:
        ``(xs, ys)`` — session lengths (sorted) and the cumulative
        fraction of *connected time* spent in sessions of length <= x.
    """
    if not lengths:
        return np.zeros(0), np.zeros(0)
    xs = np.sort(np.asarray(lengths, dtype=float))
    weights = xs / xs.sum()
    ys = np.cumsum(weights)
    return xs, ys


def time_weighted_median_session(lengths):
    """Median session length weighted by time spent in each session.

    This is the "median session length" of Figures 4 and 7: the session
    length L such that half of all connected time is spent in sessions
    of length at most L.  Returns 0.0 when there were no sessions.
    """
    xs, ys = time_in_sessions_cdf(lengths)
    if len(xs) == 0:
        return 0.0
    idx = int(np.searchsorted(ys, 0.5))
    idx = min(idx, len(xs) - 1)
    return float(xs[idx])
