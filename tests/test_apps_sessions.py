"""Unit tests for window ratios, session extraction and time-weighted
medians."""

import numpy as np
import pytest

from repro.apps.sessions import (
    adequacy_runs,
    session_lengths,
    time_in_sessions_cdf,
    time_weighted_median_session,
    window_ratios,
)


class TestWindowRatios:
    def test_pools_both_directions(self):
        up = [True, True, False, False]
        down = [True, False, False, False]
        assert list(window_ratios(up, down, 2)) == [0.75, 0.0]

    def test_window_without_probes_rejected(self):
        with pytest.raises(ValueError):
            window_ratios([True], [True], 0)


class TestRuns:
    def test_single_run(self):
        assert adequacy_runs([True, True, True]) == [(0, 3)]

    def test_multiple_runs(self):
        flags = [True, False, True, True, False, True]
        assert adequacy_runs(flags) == [(0, 1), (2, 2), (5, 1)]

    def test_no_runs(self):
        assert adequacy_runs([False, False]) == []

    def test_empty(self):
        assert adequacy_runs([]) == []

    def test_trailing_run_closed(self):
        assert adequacy_runs([False, True, True]) == [(1, 2)]


class TestSessionLengths:
    def test_window_scaling(self):
        flags = [True, True, False, True]
        assert session_lengths(flags, window_s=3.0) == [6.0, 3.0]

    def test_numpy_bool_input(self):
        flags = np.array([True, True, False])
        assert session_lengths(flags) == [2.0]


class TestTimeWeightedMedian:
    def test_uniform_sessions(self):
        assert time_weighted_median_session([10.0, 10.0, 10.0]) == 10.0

    def test_time_weighting_favours_long_sessions(self):
        # 10 sessions of 1 s (10 s total) and one of 90 s: half the
        # connected time sits in the 90 s session.
        lengths = [1.0] * 10 + [90.0]
        assert time_weighted_median_session(lengths) == 90.0
        # The unweighted median would have been 1.0.

    def test_empty_is_zero(self):
        assert time_weighted_median_session([]) == 0.0

    def test_single_session(self):
        assert time_weighted_median_session([42.0]) == 42.0


class TestCdf:
    def test_shape_and_normalization(self):
        xs, ys = time_in_sessions_cdf([1.0, 3.0, 6.0])
        assert list(xs) == [1.0, 3.0, 6.0]
        assert ys[-1] == pytest.approx(1.0)
        assert ys[0] == pytest.approx(0.1)

    def test_empty(self):
        xs, ys = time_in_sessions_cdf([])
        assert len(xs) == 0 and len(ys) == 0
