"""Unit tests for named RNG streams and buffered uniform draws."""

import pytest

from repro.core.protocol import ViFiConfig
from repro.net.channel import BernoulliLoss
from repro.sim.rng import BufferedUniforms, RngRegistry, derive_seed


def test_same_name_same_stream_object():
    rngs = RngRegistry(1)
    assert rngs.stream("a", "b") is rngs.stream("a", "b")


def test_same_seed_reproduces_sequence():
    a = RngRegistry(42).stream("channel", 3)
    b = RngRegistry(42).stream("channel", 3)
    assert list(a.random(10)) == list(b.random(10))


def test_different_names_are_independent():
    rngs = RngRegistry(42)
    a = list(rngs.stream("x").random(5))
    b = list(rngs.stream("y").random(5))
    assert a != b


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x")
    b = RngRegistry(2).stream("x")
    assert list(a.random(5)) != list(b.random(5))


def test_fresh_returns_replayable_stream():
    rngs = RngRegistry(7)
    first = list(rngs.fresh("s").random(5))
    second = list(rngs.fresh("s").random(5))
    assert first == second


def test_spawn_scopes_namespace():
    root = RngRegistry(9)
    child = root.spawn("trial", 3)
    direct = RngRegistry(derive_seed(9, "trial/3")).stream("x")
    assert list(child.stream("x").random(5)) == list(direct.random(5))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(5, "abc") == derive_seed(5, "abc")
    assert derive_seed(5, "abc") != derive_seed(5, "abd")
    assert derive_seed(5, "abc") != derive_seed(6, "abc")


class TestBufferedUniforms:
    def test_matches_scalar_draw_sequence(self):
        scalar = RngRegistry(8).fresh("u")
        buffered = BufferedUniforms(RngRegistry(8).fresh("u"), block=32)
        expected = [scalar.random() for _ in range(100)]
        got = [buffered.next() for _ in range(100)]
        assert got == pytest.approx(expected, abs=0.0)

    def test_bernoulli_extremes_unchanged(self):
        rngs = RngRegistry(12)
        always = BernoulliLoss(1.0, rngs.stream("x"))
        never = BernoulliLoss(0.0, rngs.stream("y"))
        assert all(always.is_lost(t * 0.1) for t in range(50))
        assert not any(never.is_lost(t * 0.1) for t in range(50))

    @pytest.mark.parametrize("low, high", [(0.0, 0.01), (-0.05, 0.05)])
    def test_affine_draw_matches_uniform(self, low, high):
        """``low + (high - low) * u`` is the value ``uniform`` returns.

        Nodes draw beacon jitter that way from buffered blocks; checked
        over several 64-draw refills against a mirrored stream.
        """
        buffered = BufferedUniforms(RngRegistry(13).fresh("u"))
        mirror = RngRegistry(13).fresh("u")
        for _ in range(200):
            u = buffered.next()
            assert low + (high - low) * u == mirror.uniform(low, high)

    def test_relay_coin_draws_match_scalar_calls(self):
        """Relay-timer jitter ``x * u`` and decisions ``u < p``, drawn
        interleaved from one buffered stream, equal the scalar
        ``uniform(0.0, x)`` and ``random() < p`` calls they replace."""
        interval = ViFiConfig().relay_timer_interval
        buffered = BufferedUniforms(RngRegistry(14).fresh("c"))
        mirror = RngRegistry(14).fresh("c")
        for k in range(200):
            assert interval * buffered.next() \
                == mirror.uniform(0.0, interval)
            p = (k % 11) / 10.0
            assert (buffered.next() < p) == (mirror.random() < p)
