"""Unit tests for loss processes, including the ``loss_eps_window``
values the medium's resolve rows read and the bounds that let it reuse
one threshold across a window, and for :func:`steered_losses`, which
draws the probe grids' losses."""

import math

import numpy as np
import pytest

from repro.net.channel import (
    STEER_BAD_S,
    STEER_GOOD_S,
    BernoulliLoss,
    GilbertElliottLoss,
    RateSeries,
    SteeredGilbertElliott,
    TraceDrivenLoss,
    steer_split,
    steered_losses,
)
from repro.net.medium import LinkTable, WirelessMedium
from repro.net.packet import DataPacket, Direction
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.testbeds.vanlan import VanLanTestbed


def _rng(name="x"):
    return RngRegistry(123).fresh(name)


def _medium_loss_fraction(process, n):
    """The fraction of *n* broadcast frames ``0 -> 1`` that the medium
    loses on a link served by *process*."""
    class _Node:
        def __init__(self, node_id):
            self.node_id = node_id
            self.received = 0

        def on_receive(self, frame, transmitter_id):
            self.received += 1

    table = LinkTable()
    table.set_link(0, 1, process)
    sim = Simulator()
    medium = WirelessMedium(sim, table, RngRegistry(123).fresh("medium"))
    nodes = [_Node(0), _Node(1)]
    for node in nodes:
        medium.attach(node)
    for k in range(n):
        medium.send(0, DataPacket(pkt_id=k, src=0, dst=1,
                                  direction=Direction.UPSTREAM,
                                  size_bytes=100))
    sim.run()
    assert medium.transmissions(kind="data") == n
    return 1.0 - nodes[1].received / n


class TestBernoulliLoss:
    def test_loss_rate_matches_parameter(self):
        process = BernoulliLoss(0.3)
        assert process.loss_rate(0.0) == 0.3

    def test_empirical_rate_converges(self):
        """The medium's coins lose the process's share of frames."""
        assert 0.27 < _medium_loss_fraction(BernoulliLoss(0.3), 8000) < 0.33

    def test_extremes(self):
        assert BernoulliLoss(0.0).loss_eps_window(0.0) == (0.0, math.inf)
        assert BernoulliLoss(1.0).loss_eps_window(0.0) == (1.0, math.inf)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)


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
        """The time-averaged loss probability approaches the
        stationary rate."""
        process = GilbertElliottLoss(
            eps_good=0.05, eps_bad=0.95,
            good_duration=0.5, bad_duration=0.1, rng=_rng("ge"),
        )
        n = 50000
        eps = [process.loss_eps_window(t * 0.01)[0] for t in range(n)]
        assert abs(sum(eps) / n - process.loss_rate(0)) < 0.03

    def test_losses_are_bursty(self):
        """Coins flipped against the chain's loss probability, as the
        medium flips them: the consecutive-loss probability must exceed
        the base rate."""
        process = GilbertElliottLoss(
            eps_good=0.02, eps_bad=1.0,
            good_duration=1.0, bad_duration=0.15, rng=_rng("burst"),
        )
        n = 60000
        eps = np.array([process.loss_eps_window(t * 0.01)[0]
                        for t in range(n)])
        arr = _rng("coins").random(n) < eps
        base = arr.mean()
        after_loss = arr[1:][arr[:-1]].mean()
        assert after_loss > 2.0 * base

    def test_backwards_query_rejected(self):
        process = GilbertElliottLoss(0.1, 0.9, 1.0, 0.1, _rng())
        process.loss_eps_window(5.0)
        with pytest.raises(ValueError):
            process.loss_eps_window(1.0)

    def test_invalid_durations_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(0.1, 0.9, 0.0, 0.1, _rng())


class TestSteeredGilbertElliott:
    """The steered chain as the probe grids walk it
    (:func:`steered_losses`), and the split every steered chain uses."""

    def test_mean_tracks_target(self):
        target = 0.35
        times = np.arange(40000) * 0.01
        lost = steered_losses(times, np.full(len(times), target),
                              _rng("st"))
        assert abs(lost.mean() - target) < 0.03

    def test_zero_target_never_loses(self):
        times = np.arange(1000) * 0.05
        assert not steered_losses(times, np.zeros(1000), _rng()).any()

    def test_full_target_always_loses(self):
        times = np.arange(1000) * 0.05
        assert steered_losses(times, np.ones(1000), _rng()).all()

    def test_split_preserves_mean_when_bad_saturates(self):
        eps_good, eps_bad = steer_split(0.9)
        assert eps_bad == 1.0
        pi_b = STEER_BAD_S / (STEER_GOOD_S + STEER_BAD_S)
        mean = pi_b * eps_bad + (1 - pi_b) * eps_good
        assert mean == pytest.approx(0.9, abs=1e-9)

    def test_burstiness_preserved_under_steering(self):
        times = np.arange(60000) * 0.01
        outcomes = steered_losses(times, np.full(len(times), 0.25),
                                  _rng("sb"))
        base = outcomes.mean()
        after_loss = outcomes[1:][outcomes[:-1]].mean()
        assert after_loss > 1.5 * base

    def test_time_varying_target(self):
        times = np.concatenate([np.arange(500) * 0.01,
                                15 + np.arange(500) * 0.01])
        lost = steered_losses(times, np.where(times < 10, 0.0, 1.0),
                              _rng())
        assert not lost[:500].any()
        assert lost[500:].all()


class TestTraceDrivenLoss:
    def test_rates_indexed_by_second(self):
        process = TraceDrivenLoss([0.0, 0.5, 1.0])
        assert process.loss_rate(0.5) == 0.0
        assert process.loss_rate(1.2) == 0.5
        assert process.loss_rate(2.9) == 1.0

    def test_out_of_range_uses_default(self):
        process = TraceDrivenLoss([0.2], out_of_range_rate=1.0)
        assert process.loss_rate(5.0) == 1.0
        assert process.loss_rate(-1.0) == 1.0

    def test_t0_offset(self):
        process = TraceDrivenLoss([0.0, 1.0], t0=100.0)
        assert process.loss_rate(100.5) == 0.0
        assert process.loss_rate(101.5) == 1.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TraceDrivenLoss([0.5, 1.2])

    def test_sampling_respects_rates(self):
        process = TraceDrivenLoss([0.0, 1.0])
        assert all(process.loss_eps_window(k * 0.001)[0] == 0.0
                   for k in range(500))
        assert all(process.loss_eps_window(1.0 + k * 0.001)[0] == 1.0
                   for k in range(500))


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
            assert process.loss_eps_window(0.0)[0] in (eps_good, eps_bad)

    def test_loss_eps_tracks_bank_member(self):
        testbed = VanLanTestbed(seed=6)
        motion = testbed.vehicle_motion()
        member = testbed.build_link_bank(0, motion).members()[0]
        process = SteeredGilbertElliott(member,
                                        rng=RngRegistry(1).stream("c"))
        assert process._rate_window == member.rate_window
        for k in range(200):
            t = k * 0.013
            eps = process.loss_eps_window(t)[0]
            assert 0.0 <= eps <= 1.0
            # The split preserves the member's current mean.
            eps_good, eps_bad = process._last_split
            pi_b = process._chain.pi_bad
            mean = pi_b * eps_bad + (1 - pi_b) * eps_good
            assert mean == pytest.approx(member.rate_window(t)[0],
                                         abs=1e-12)


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
                assert process.loss_eps_window(t)[0] == eps
            t = t + step

    def test_bernoulli(self):
        process = BernoulliLoss(0.3)
        self._check_windows(process, 0.1, 50)

    def test_gilbert_elliott(self):
        process = GilbertElliottLoss(0.05, 0.8, 0.9, 0.12,
                                     RngRegistry(2).stream("g"))
        self._check_windows(process, 0.05, 200)

    def test_trace_driven(self):
        process = TraceDrivenLoss([0.1, 0.9, 0.4])
        self._check_windows(process, 0.13, 40)

    def test_steered_static(self):
        process = SteeredGilbertElliott(0.35, RngRegistry(4).stream("s"))
        self._check_windows(process, 0.03, 300)

    def test_steered_by_trace_series(self):
        series = RateSeries(np.array([0.1, 0.9, 0.4, 0.0, 0.7]))
        process = SteeredGilbertElliott(series, RngRegistry(4).stream("r"))
        # 0.13 s steps run about 3 s past the trace end.
        self._check_windows(process, 0.13, 60)

    def test_trace_second_boundary_instants(self):
        """Exactly on a trace-second boundary the new second governs."""
        rates = [0.1, 0.9, 0.4]
        process = TraceDrivenLoss(rates)
        for second, rate in enumerate(rates):
            eps, until = process.loss_eps_window(float(second))
            assert eps == rate
            assert until == float(second + 1)
            # The window is sound right up to (and excluding) its end.
            assert process.loss_eps_window(second + 0.999)[0] == rate
        # Past the trace: the out-of-range rate holds forever.
        eps, until = process.loss_eps_window(float(len(rates)))
        assert eps == 1.0
        assert until == math.inf

    def test_trace_steered_second_boundary_instants(self):
        """A trace-steered chain switches rate exactly at each second.

        At ``t = k.0`` second *k*'s rate governs and the window ends at
        ``min(k + 1, next flip)``; past the trace the out-of-range rate
        holds and only chain flips bound the window.
        """
        rates = np.array([0.1, 0.9, 0.4, 0.0, 0.7, 0.2] * 4)
        process = SteeredGilbertElliott(RateSeries(rates),
                                        RngRegistry(10).stream("s"))
        chain = process._chain
        ended_at_second = set()
        for second, rate in enumerate(rates):
            t = float(second)
            eps, until = process.loss_eps_window(t)
            eps_good, eps_bad = steer_split(rate)
            assert eps == (eps_bad if chain._in_bad else eps_good)
            assert until == min(t + 1.0, chain._next_flip)
            ended_at_second.add(until == t + 1.0)
            # The window is sound right up to (and excluding) its end.
            assert process.loss_eps_window(t + 0.999 * (until - t))[0] \
                == eps
        # Both bounds occur: some seconds end first, some flips do.
        assert ended_at_second == {True, False}
        eps_good, eps_bad = steer_split(1.0)
        t = float(len(rates))
        for _ in range(20):
            eps, until = process.loss_eps_window(t)
            assert eps == (eps_bad if chain._in_bad else eps_good)
            assert until == chain._next_flip
            t = until

    def test_steering_bucket_edge_instants(self):
        """Window bounds at exact bucket edges never go stale.

        Querying exactly on a bank member's bucket edge may land the
        float-divided key on either side of the edge; the returned
        bound must still satisfy the soundness contract (eps constant
        strictly inside [t, bound)), even when it degenerates to the
        query time itself.
        """
        testbed = VanLanTestbed(seed=8)
        motion = testbed.vehicle_motion()
        members = testbed.build_link_bank(0, motion).members()
        member = members[testbed.deployment.bs_ids.index(3)]
        assert member.quantum == 0.02
        process = SteeredGilbertElliott(member,
                                        rng=RngRegistry(8).stream("s"))
        for k in range(1, 400):
            t = k * 0.02  # exact bucket edges, monotone
            eps, until = process.loss_eps_window(t)
            assert until >= t
            assert process.loss_eps_window(t)[0] == eps
            if until > t:
                probe = t + min(0.25 * (until - t), 1e-4)
                assert process.loss_eps_window(probe)[0] == eps

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



class TestMediumAttachedChains:
    """Chains serving the medium block-draw their holding times: the
    flip instants equal those of one scalar ``rng.exponential(mean)``
    draw per holding time, as :func:`steered_losses` takes them."""

    FLIPS = 200

    @staticmethod
    def _flips(process, n):
        """The first *n* flip instants, read through loss_eps_window."""
        flips = []
        t = 0.0
        for _ in range(n):
            _, t = process.loss_eps_window(t)
            flips.append(t)
        return flips

    @staticmethod
    def _scalar_flips(rng, good_s, bad_s, n):
        """The reference: the chain walked with scalar draws."""
        in_bad = rng.random() < bad_s / (good_s + bad_s)
        t = rng.exponential(bad_s if in_bad else good_s)
        flips = []
        for _ in range(n):
            flips.append(t)
            in_bad = not in_bad
            t += rng.exponential(bad_s if in_bad else good_s)
        return flips

    def test_block_draws_equal_scalar_draws(self):
        """The flips span several block refills and match bit for bit."""
        assert self.FLIPS > 3 * GilbertElliottLoss._HOLDING_BLOCK
        process = GilbertElliottLoss(0.05, 0.8, 0.9, 0.12,
                                     RngRegistry(44).fresh("chain"))
        assert self._flips(process, self.FLIPS) == self._scalar_flips(
            RngRegistry(44).fresh("chain"), 0.9, 0.12, self.FLIPS)

    def test_steered_chain_block_draws_equal_scalar_draws(self):
        process = SteeredGilbertElliott(0.3, RngRegistry(44).fresh("chain"))
        assert self._flips(process, self.FLIPS) == self._scalar_flips(
            RngRegistry(44).fresh("chain"), STEER_GOOD_S, STEER_BAD_S,
            self.FLIPS)
