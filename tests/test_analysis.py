"""Unit tests for the analysis package."""

import numpy as np
import pytest

from repro.analysis.burstiness import (
    conditional_loss_curve,
    overall_loss_probability,
)
from repro.analysis.cdf import empirical_cdf, mean_confidence_interval
from repro.analysis.conditional import two_bs_conditionals
from repro.experiments.study import diversity_cdfs
from repro.testbeds.traces import BeaconLog


class TestCdfHelpers:
    def test_empirical_cdf(self):
        xs, ys = empirical_cdf([3, 1, 2])
        assert list(xs) == [1, 2, 3]
        assert list(ys) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empirical_cdf_empty(self):
        xs, ys = empirical_cdf([])
        assert len(xs) == 0

    def test_mean_ci_contains_truth(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(10.0, 2.0, size=400)
        mean, half = mean_confidence_interval(sample)
        assert abs(mean - 10.0) < half + 0.3
        assert half > 0

    def test_mean_ci_degenerate(self):
        assert mean_confidence_interval([]) == (0.0, 0.0)
        assert mean_confidence_interval([4.0]) == (4.0, 0.0)


class TestBurstiness:
    def test_iid_losses_flat_curve(self):
        rng = np.random.default_rng(1)
        losses = rng.random(200000) < 0.3
        curve = conditional_loss_curve(losses, [1, 10, 100])
        for value in curve.values():
            assert value == pytest.approx(0.3, abs=0.02)

    def test_bursty_losses_decay_with_lag(self):
        # Synthetic bursts: loss state persists ~20 samples.
        rng = np.random.default_rng(2)
        state = False
        losses = []
        for _ in range(100000):
            if rng.random() < 0.05:
                state = not state
            losses.append(state)
        curve = conditional_loss_curve(losses, [1, 200])
        base = overall_loss_probability(losses)
        assert curve[1] > 1.5 * base
        assert abs(curve[200] - base) < 0.1

    def test_no_losses_gives_nan(self):
        curve = conditional_loss_curve([False] * 100, [1])
        assert np.isnan(curve[1])

    def test_invalid_lag_rejected(self):
        with pytest.raises(ValueError):
            conditional_loss_curve([True, False], [0])


class TestTwoBsConditionals:
    def test_independent_receivers(self):
        rng = np.random.default_rng(3)
        a = rng.random(100000) < 0.75
        b = rng.random(100000) < 0.67
        stats = two_bs_conditionals(a, b)
        assert stats["P(A)"] == pytest.approx(0.75, abs=0.01)
        assert stats["P(B)"] == pytest.approx(0.67, abs=0.01)
        # Independence: conditioning on A's loss barely moves B.
        assert stats["P(B+1|!A)"] == pytest.approx(0.67, abs=0.02)

    def test_self_conditioning_with_bursts(self):
        # A's losses persist; conditional self-reception drops.
        rng = np.random.default_rng(4)
        state = True
        a = []
        for _ in range(50000):
            if rng.random() < 0.08:
                state = not state
            a.append(state)
        a = np.asarray(a)
        b = rng.random(50000) < 0.6
        stats = two_bs_conditionals(a, b)
        assert stats["P(A+1|!A)"] < stats["P(A)"] * 0.6

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            two_bs_conditionals([True], [True, False])


class TestDiversity:
    """The Figure 5 visible-BS histogram and CDF of one beacon log."""

    def _log(self):
        heard = [[10, 3, 0], [0, 0, 0], [5, 5, 5], [1, 0, 0]]
        return BeaconLog([1, 2, 3], heard, expected=10)

    def test_histogram(self):
        _, _, hist = diversity_cdfs([self._log()])
        assert list(hist) == [1, 1, 1, 1]

    def test_histogram_with_ratio(self):
        _, _, hist = diversity_cdfs([self._log()], min_ratio=0.5)
        assert hist[0] == 2  # seconds 1 and 3
        assert hist[3] == 1  # second 2

    def test_cdf(self):
        xs, ys, _ = diversity_cdfs([self._log()])
        assert ys[-1] == pytest.approx(1.0)
        assert xs[0] == 0
