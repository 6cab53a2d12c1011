"""Unit tests for loss processes, including the ``loss_eps_window``
values the medium's resolve rows read and the bounds that let it reuse
one threshold across a window."""

import math

import numpy as np
import pytest

from repro.net.channel import (
    BernoulliLoss,
    GilbertElliottLoss,
    RateSeries,
    SteeredGilbertElliott,
    TraceDrivenLoss,
)
from repro.net.medium import LinkTable, WirelessMedium
from repro.net.packet import DataPacket, Direction
from repro.sim.engine import Simulator
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

    def test_steered_by_trace_series(self):
        series = RateSeries(np.array([0.1, 0.9, 0.4, 0.0, 0.7]))
        process = SteeredGilbertElliott(series, RngRegistry(4).stream("r"))
        # 0.13 s steps run about 3 s past the trace end.
        self._check_windows(process, 0.13, 60)

    def test_trace_second_boundary_instants(self):
        """Exactly on a trace-second boundary the new second governs."""
        rates = [0.1, 0.9, 0.4]
        process = TraceDrivenLoss(rates, RngRegistry(5).stream("t"))
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
            eps_good, eps_bad = process._split(rate)
            assert eps == (eps_bad if chain._in_bad else eps_good)
            assert until == min(t + 1.0, chain._next_flip)
            ended_at_second.add(until == t + 1.0)
            # The window is sound right up to (and excluding) its end.
            assert process.loss_eps_window(t + 0.999 * (until - t))[0] \
                == eps
        # Both bounds occur: some seconds end first, some flips do.
        assert ended_at_second == {True, False}
        eps_good, eps_bad = process._split(1.0)
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
    """Attached chains block-draw their holding times, unmoved."""

    FLIPS = 200

    @staticmethod
    def _flips(process, n, reattach_at=None):
        """The first *n* flip instants, read through loss_eps_window."""
        flips = []
        t = 0.0
        for k in range(n):
            if k == reattach_at:
                process.attach_medium()
            _, t = process.loss_eps_window(t)
            flips.append(t)
        return flips

    def _twins(self, make):
        scalar = make(RngRegistry(44).fresh("chain"))
        blocked = make(RngRegistry(44).fresh("chain"))
        blocked.attach_medium()
        return scalar, blocked

    def test_block_draws_equal_scalar_draws(self):
        """The flips span several block refills and match bit for bit;
        a second attach in mid-block keeps the block it is serving."""
        assert self.FLIPS > 3 * GilbertElliottLoss._HOLDING_BLOCK
        scalar, blocked = self._twins(
            lambda rng: GilbertElliottLoss(0.05, 0.8, 0.9, 0.12, rng))
        expected = self._flips(scalar, self.FLIPS)
        assert self._flips(blocked, self.FLIPS, reattach_at=37) == expected
        assert scalar._holding is None

    def test_steered_chain_block_draws_equal_scalar_draws(self):
        scalar, blocked = self._twins(
            lambda rng: SteeredGilbertElliott(0.3, rng))
        assert self._flips(blocked, self.FLIPS, reattach_at=5) == \
            self._flips(scalar, self.FLIPS)

    def test_is_lost_raises_once_attached(self):
        for process in (
                GilbertElliottLoss(0.05, 0.8, 0.9, 0.12, _rng()),
                SteeredGilbertElliott(0.3, _rng())):
            assert process.is_lost(0.0) in (True, False)
            process.attach_medium()
            with pytest.raises(RuntimeError):
                process.is_lost(0.1)

    def test_medium_rows_attach_their_processes(self):
        """Resolving a frame attaches the chains it reads, and a
        symmetric link's process serves both rows with one block."""
        class _Node:
            def __init__(self, node_id):
                self.node_id = node_id

            def on_receive(self, frame, transmitter_id):
                pass

        rngs = RngRegistry(8)
        shared = SteeredGilbertElliott(0.2, rngs.stream("ab"))
        idle = SteeredGilbertElliott(0.2, rngs.stream("ca"))
        table = LinkTable()
        table.set_link(0, 1, shared, symmetric=True)
        table.set_link(2, 0, idle)
        sim = Simulator()
        medium = WirelessMedium(sim, table, rngs.stream("m"))
        for node_id in range(3):
            medium.attach(_Node(node_id))
        for src, dst in ((0, 1), (1, 0)):
            medium.send(src, DataPacket(pkt_id=0, src=src, dst=dst,
                                        direction=Direction.UPSTREAM,
                                        size_bytes=300))
        sim.run(until=1.0)
        assert shared._chain._holding is not None
        with pytest.raises(RuntimeError):
            shared.is_lost(1.0)
        # Node 2 never transmitted: its link serves no row.
        assert idle._chain._holding is None
        assert idle.is_lost(1.0) in (True, False)
