"""Unit tests for loss processes, including the ``loss_eps`` values
the medium's resolve rows read and the ``loss_eps_window`` bounds that
let it reuse one threshold across a window."""

import math

import numpy as np
import pytest

from repro.net.channel import (
    BernoulliLoss,
    GilbertElliottLoss,
    SteeredGilbertElliott,
    TraceDrivenLoss,
)
from repro.net.propagation import LinkStateCache
from repro.sim.rng import RngRegistry
from repro.testbeds.vanlan import VanLanTestbed


def _rng(name="x"):
    return RngRegistry(123).fresh(name)


class TestBernoulliLoss:
    def test_loss_rate_matches_parameter(self):
        process = BernoulliLoss(0.3, _rng())
        assert process.loss_rate(0.0) == 0.3

    def test_empirical_rate_converges(self):
        process = BernoulliLoss(0.3, _rng())
        losses = sum(process.is_lost(t * 0.01) for t in range(20000))
        assert 0.27 < losses / 20000 < 0.33

    def test_extremes(self):
        assert not BernoulliLoss(0.0, _rng()).is_lost(0)
        assert BernoulliLoss(1.0, _rng()).is_lost(0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, _rng())


class TestGilbertElliott:
    def test_stationary_loss_rate(self):
        process = GilbertElliottLoss(
            eps_good=0.1, eps_bad=0.9,
            good_duration=1.0, bad_duration=0.25, rng=_rng(),
        )
        pi_bad = 0.25 / 1.25
        expected = (1 - pi_bad) * 0.1 + pi_bad * 0.9
        assert process.loss_rate(0.0) == pytest.approx(expected)

    def test_empirical_rate_near_stationary(self):
        process = GilbertElliottLoss(
            eps_good=0.05, eps_bad=0.95,
            good_duration=0.5, bad_duration=0.1, rng=_rng("ge"),
        )
        n = 50000
        losses = sum(process.is_lost(t * 0.01) for t in range(n))
        assert abs(losses / n - process.loss_rate(0)) < 0.03

    def test_losses_are_bursty(self):
        """Consecutive-loss probability must exceed the base rate."""
        process = GilbertElliottLoss(
            eps_good=0.02, eps_bad=1.0,
            good_duration=1.0, bad_duration=0.15, rng=_rng("burst"),
        )
        outcomes = [process.is_lost(t * 0.01) for t in range(60000)]
        arr = np.asarray(outcomes)
        base = arr.mean()
        after_loss = arr[1:][arr[:-1]].mean()
        assert after_loss > 2.0 * base

    def test_backwards_query_rejected(self):
        process = GilbertElliottLoss(0.1, 0.9, 1.0, 0.1, _rng())
        process.is_lost(5.0)
        with pytest.raises(ValueError):
            process.is_lost(1.0)

    def test_invalid_durations_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(0.1, 0.9, 0.0, 0.1, _rng())


class TestSteeredGilbertElliott:
    def test_mean_tracks_target(self):
        target = 0.35
        process = SteeredGilbertElliott(lambda t: target, rng=_rng("st"))
        n = 40000
        losses = sum(process.is_lost(t * 0.01) for t in range(n))
        assert abs(losses / n - target) < 0.03

    def test_zero_target_never_loses(self):
        process = SteeredGilbertElliott(lambda t: 0.0, rng=_rng())
        assert not any(process.is_lost(t * 0.05) for t in range(1000))

    def test_full_target_always_loses(self):
        process = SteeredGilbertElliott(lambda t: 1.0, rng=_rng())
        assert all(process.is_lost(t * 0.05) for t in range(1000))

    def test_split_preserves_mean_when_bad_saturates(self):
        process = SteeredGilbertElliott(lambda t: 0.9, rng=_rng())
        eps_good, eps_bad = process._split(0.9)
        pi_b = process._chain.pi_bad
        mean = pi_b * eps_bad + (1 - pi_b) * eps_good
        assert mean == pytest.approx(0.9, abs=1e-9)

    def test_burstiness_preserved_under_steering(self):
        process = SteeredGilbertElliott(lambda t: 0.25, rng=_rng("sb"))
        outcomes = np.asarray(
            [process.is_lost(t * 0.01) for t in range(60000)]
        )
        base = outcomes.mean()
        after_loss = outcomes[1:][outcomes[:-1]].mean()
        assert after_loss > 1.5 * base

    def test_time_varying_target(self):
        process = SteeredGilbertElliott(
            lambda t: 0.0 if t < 10 else 1.0, rng=_rng()
        )
        early = [process.is_lost(t * 0.01) for t in range(500)]
        late = [process.is_lost(15 + t * 0.01) for t in range(500)]
        assert not any(early)
        assert all(late)


class TestTraceDrivenLoss:
    def test_rates_indexed_by_second(self):
        process = TraceDrivenLoss([0.0, 0.5, 1.0], rng=_rng())
        assert process.loss_rate(0.5) == 0.0
        assert process.loss_rate(1.2) == 0.5
        assert process.loss_rate(2.9) == 1.0

    def test_out_of_range_uses_default(self):
        process = TraceDrivenLoss([0.2], rng=_rng(), out_of_range_rate=1.0)
        assert process.loss_rate(5.0) == 1.0
        assert process.loss_rate(-1.0) == 1.0

    def test_t0_offset(self):
        process = TraceDrivenLoss([0.0, 1.0], rng=_rng(), t0=100.0)
        assert process.loss_rate(100.5) == 0.0
        assert process.loss_rate(101.5) == 1.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TraceDrivenLoss([0.5, 1.2], rng=_rng())

    def test_sampling_respects_rates(self):
        process = TraceDrivenLoss([0.0, 1.0], rng=_rng())
        assert not any(process.is_lost(0.0 + k * 0.001) for k in range(500))
        assert all(process.is_lost(1.0 + k * 0.001) for k in range(500))


class TestLossEps:
    def test_steered_static_mean_preserved(self):
        rngs = RngRegistry(7)
        for target in (0.0, 0.05, 0.4, 0.9, 1.0):
            process = SteeredGilbertElliott(target,
                                            rng=rngs.stream("s", target))
            eps_good, eps_bad = process._static_eps
            pi_b = process._chain.pi_bad
            mean = pi_b * eps_bad + (1 - pi_b) * eps_good
            assert mean == pytest.approx(target, abs=1e-12)
            assert process.loss_eps(0.0) in (eps_good, eps_bad)

    def test_loss_eps_tracks_link_state_cache(self):
        testbed = VanLanTestbed(seed=6)
        motion = testbed.vehicle_motion()
        cache = LinkStateCache(testbed.link_model(0, 1, motion),
                               quantum_s=0.02)
        process = SteeredGilbertElliott(cache.loss_prob,
                                        rng=RngRegistry(1).stream("c"))
        assert process._link_state is cache
        for k in range(200):
            t = k * 0.013
            eps = process.loss_eps(t)
            assert 0.0 <= eps <= 1.0
            # The split preserves the cache's current mean.
            eps_good, eps_bad = process._last_split
            pi_b = process._chain.pi_bad
            mean = pi_b * eps_bad + (1 - pi_b) * eps_good
            assert mean == pytest.approx(cache.loss_prob(t), abs=1e-12)


class TestLossEpsWindows:
    """``loss_eps_window`` bounds are sound: eps is constant inside."""

    def _check_windows(self, process, step, n):
        """Walk monotone times; probe strictly inside each window."""
        t = 0.0
        for _ in range(n):
            eps, until = process.loss_eps_window(t)
            assert 0.0 <= eps <= 1.0
            assert until >= t
            # A monotone probe strictly inside the window must see the
            # same probability (that is the reuse guarantee the array
            # kernel leans on).
            if math.isfinite(until):
                inside = min(0.25 * (until - t), 0.5 * step)
            else:
                inside = 0.5 * step
            if inside > 0.0:
                t = t + inside
                assert process.loss_eps(t) == eps
            t = t + step

    def test_bernoulli(self):
        process = BernoulliLoss(0.3, RngRegistry(1).stream("b"))
        self._check_windows(process, 0.1, 50)

    def test_gilbert_elliott(self):
        process = GilbertElliottLoss(0.05, 0.8, 0.9, 0.12,
                                     RngRegistry(2).stream("g"))
        self._check_windows(process, 0.05, 200)

    def test_trace_driven(self):
        process = TraceDrivenLoss([0.1, 0.9, 0.4], RngRegistry(3).stream("t"))
        self._check_windows(process, 0.13, 40)

    def test_steered_static(self):
        process = SteeredGilbertElliott(0.35, RngRegistry(4).stream("s"))
        self._check_windows(process, 0.03, 300)

    def test_trace_second_boundary_instants(self):
        """Exactly on a trace-second boundary the new second governs."""
        rates = [0.1, 0.9, 0.4]
        process = TraceDrivenLoss(rates, RngRegistry(5).stream("t"))
        for second, rate in enumerate(rates):
            eps, until = process.loss_eps_window(float(second))
            assert eps == rate
            assert until == float(second + 1)
            # The window is sound right up to (and excluding) its end.
            assert process.loss_eps(second + 0.999) == rate
        # Past the trace: the out-of-range rate holds forever.
        eps, until = process.loss_eps_window(float(len(rates)))
        assert eps == 1.0
        assert until == math.inf

    def test_steering_bucket_edge_instants(self):
        """Window bounds at exact bucket edges never go stale.

        Querying exactly on a LinkStateCache bucket edge may land the
        float-divided key on either side of the edge; the returned
        bound must still satisfy the soundness contract (eps constant
        strictly inside [t, bound)), even when it degenerates to the
        query time itself.
        """
        testbed = VanLanTestbed(seed=8)
        motion = testbed.vehicle_motion()
        cache = LinkStateCache(testbed.link_model(0, 3, motion),
                               quantum_s=0.02)
        process = SteeredGilbertElliott(cache.loss_prob,
                                        rng=RngRegistry(8).stream("s"))
        for k in range(1, 400):
            t = k * 0.02  # exact bucket edges, monotone
            eps, until = process.loss_eps_window(t)
            assert until >= t
            assert process.loss_eps(t) == eps
            if until > t:
                probe = t + min(0.25 * (until - t), 1e-4)
                assert process.loss_eps(probe) == eps

    def test_pending_flip_caps_window(self):
        """A pending chain flip bounds the window; at the flip instant
        the flipped state governs and the bound moves past it."""
        process = GilbertElliottLoss(0.05, 0.8, 0.9, 0.12,
                                     RngRegistry(6).stream("g"))
        eps_by_state = {False: 0.05, True: 0.8}
        t = 0.0
        for _ in range(50):
            eps, flip_at = process.loss_eps_window(t)
            assert eps == eps_by_state[process._in_bad]
            assert flip_at == process._next_flip
            # Querying exactly at the flip instant advances the chain:
            # the opposite state's eps, and a strictly later bound.
            before = process._in_bad
            eps_at_flip, next_bound = process.loss_eps_window(flip_at)
            assert process._in_bad != before
            assert eps_at_flip == eps_by_state[process._in_bad]
            assert next_bound > flip_at
            t = flip_at

    def test_steered_matches_loss_eps(self):
        """window() returns the same eps value loss_eps would.

        Twin processes on identically seeded *independent* streams
        advance their chains through the same realization, so the
        windowed and plain accessors must agree at every instant.
        """
        a = SteeredGilbertElliott(0.35, RngRegistry(9).stream("x"))
        b = SteeredGilbertElliott(0.35, RngRegistry(9).fresh("x"))
        assert a.rng is not b.rng
        for k in range(200):
            t = 0.017 * k
            eps_w, _ = a.loss_eps_window(t)
            assert eps_w == b.loss_eps(t)
