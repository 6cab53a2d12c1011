"""Unit tests for the adaptive retransmission timer."""

import random

import pytest

from repro.core.retransmit import AdaptiveRetxTimer


def test_initial_timeout_before_samples():
    timer = AdaptiveRetxTimer(initial_s=0.08, floor_s=0.01)
    assert timer.timeout() == 0.08


def test_floor_dominates_small_initial():
    timer = AdaptiveRetxTimer(initial_s=0.001, floor_s=0.02)
    assert timer.timeout() == 0.02


def test_percentile_of_samples():
    timer = AdaptiveRetxTimer(percentile=99.0, floor_s=0.0, window=1000)
    for i in range(100):
        timer.add_sample(i / 1000.0)
    assert timer.timeout() == pytest.approx(0.099)


def test_high_percentile_errs_towards_waiting():
    """Picking the 99th percentile makes one outlier dominate."""
    timer = AdaptiveRetxTimer(percentile=99.0, floor_s=0.0)
    for _ in range(99):
        timer.add_sample(0.01)
    timer.add_sample(0.5)
    assert timer.timeout() == 0.5


def test_median_configuration():
    timer = AdaptiveRetxTimer(percentile=50.0, floor_s=0.0)
    for v in (0.01, 0.02, 0.03, 0.04, 0.05):
        timer.add_sample(v)
    assert timer.timeout() == pytest.approx(0.03, abs=0.011)


def test_window_evicts_old_samples():
    timer = AdaptiveRetxTimer(percentile=100.0, floor_s=0.0, window=10)
    timer.add_sample(9.0)  # an ancient outlier
    for _ in range(10):
        timer.add_sample(0.02)
    assert timer.timeout() == pytest.approx(0.02)
    assert timer.sample_count == 10


def test_stored_timeout_tracks_recomputed_percentile():
    """The timeout stored at each sample equals the percentile
    recomputed from the retained window, evictions included."""
    rng = random.Random(5)
    for percentile, window in ((99.0, 40), (50.0, 7), (100.0, 1)):
        timer = AdaptiveRetxTimer(initial_s=0.08, floor_s=0.004,
                                  percentile=percentile, window=window)
        samples = []
        for _ in range(3 * window + 25):
            delay = rng.choice((0.0, 0.002, rng.random() * 0.1))
            timer.add_sample(delay)
            samples.append(delay)
            kept = sorted(samples[-window:])
            rank = min(int(len(kept) * percentile / 100.0), len(kept) - 1)
            assert timer.timeout() == max(kept[rank], 0.004)
        assert timer.sample_count == window


def test_floor_applies_with_samples():
    timer = AdaptiveRetxTimer(floor_s=0.05)
    timer.add_sample(0.001)
    assert timer.timeout() == 0.05


def test_negative_sample_rejected():
    timer = AdaptiveRetxTimer()
    with pytest.raises(ValueError):
        timer.add_sample(-0.01)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        AdaptiveRetxTimer(percentile=0.0)
    with pytest.raises(ValueError):
        AdaptiveRetxTimer(window=0)


def test_eviction_is_constant_time_per_sample():
    """PR 6 satellite: the sample FIFO is a deque, not a list.

    The old list-backed FIFO paid ``pop(0)`` — an O(window) shift —
    per evicted sample, which under a saturated sender (thousands of
    acks per trip) turned ingestion quadratic.  A deque pops from the
    left in O(1); this pins the structure and exercises a large
    eviction run to completion.
    """
    from collections import deque

    timer = AdaptiveRetxTimer(window=500)
    assert isinstance(timer._fifo, deque)
    for i in range(5000):
        timer.add_sample(0.001 * (i % 97))
    assert timer.sample_count == 500
    assert timer.timeout() >= timer.floor
