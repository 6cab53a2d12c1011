"""Unit tests for relay-probability strategies (Section 4.4, 5.5.1)."""

import math

import pytest

from repro.core.relaying import (
    ExpectedDeliveryStrategy,
    IgnoreDestConnectivityStrategy,
    IgnoreOthersStrategy,
    RelayContext,
    ViFiRelayStrategy,
    contention_probability,
    make_strategy,
)


def lookup(table):
    def p(a, b):
        if a == b:
            return 1.0
        return table.get((a, b), 0.0)
    return p


def symmetric_context(k, p_hear, p_dst, p_src_dst, self_id=1):
    """K identical auxiliaries; src=100, dst=200."""
    table = {}
    for aux in range(1, k + 1):
        table[(100, aux)] = p_hear
        table[(aux, 200)] = p_dst
        table[(200, aux)] = p_dst
    table[(100, 200)] = p_src_dst
    return RelayContext(
        self_id=self_id,
        aux_ids=tuple(range(1, k + 1)),
        src=100,
        dst=200,
        p=lookup(table),
    )


class TestContention:
    def test_formula(self):
        p = lookup({(100, 1): 0.8, (100, 200): 0.6, (200, 1): 0.5})
        c = contention_probability(p, 100, 200, 1)
        assert c == pytest.approx(0.8 * (1 - 0.6 * 0.5))

    def test_zero_when_aux_cannot_hear(self):
        p = lookup({(100, 200): 0.6, (200, 1): 0.5})
        assert contention_probability(p, 100, 200, 1) == 0.0

    def test_full_when_no_acks_possible(self):
        p = lookup({(100, 1): 1.0, (100, 200): 0.0})
        assert contention_probability(p, 100, 200, 1) == 1.0


class TestViFiStrategy:
    def test_expected_relays_equal_one_symmetric(self):
        """Eq. 1: sum over auxiliaries of c_i * r_i == 1."""
        strategy = ViFiRelayStrategy()
        for k in (2, 3, 5, 8):
            ctx = symmetric_context(k, p_hear=0.9, p_dst=0.8,
                                    p_src_dst=0.3)
            c = contention_probability(ctx.p, ctx.src, ctx.dst, 1)
            r = strategy.relay_probability(ctx)
            if r < 1.0:  # unclipped regime
                assert k * c * r == pytest.approx(1.0, rel=1e-9)

    def test_prefers_better_connected_aux(self):
        """Eq. 2: r_i proportional to p(Bi, d)."""
        table = {
            (100, 1): 0.9, (1, 200): 0.9, (200, 1): 0.9,
            (100, 2): 0.9, (2, 200): 0.3, (200, 2): 0.3,
            (100, 200): 0.2,
        }
        base = dict(aux_ids=(1, 2), src=100, dst=200, p=lookup(table))
        strategy = ViFiRelayStrategy()
        r1 = strategy.relay_probability(RelayContext(self_id=1, **base))
        r2 = strategy.relay_probability(RelayContext(self_id=2, **base))
        assert r1 > r2
        if r1 < 1.0 and r2 < 1.0:
            assert r1 / r2 == pytest.approx(0.9 / 0.3)

    def test_lone_uninformed_aux_relays(self):
        ctx = RelayContext(self_id=1, aux_ids=(1,), src=100, dst=200,
                           p=lookup({}))
        assert ViFiRelayStrategy().relay_probability(ctx) == 1.0

    def test_probability_clipped_to_one(self):
        ctx = symmetric_context(1, p_hear=0.1, p_dst=0.9, p_src_dst=0.9)
        r = ViFiRelayStrategy().relay_probability(ctx)
        assert r <= 1.0


class TestNotG1:
    def test_relays_at_own_delivery_ratio(self):
        ctx = symmetric_context(4, p_hear=0.9, p_dst=0.65, p_src_dst=0.3)
        assert IgnoreOthersStrategy().relay_probability(ctx) == \
            pytest.approx(0.65)

    def test_ignores_peer_count(self):
        a = symmetric_context(2, 0.9, 0.6, 0.3)
        b = symmetric_context(9, 0.9, 0.6, 0.3)
        strategy = IgnoreOthersStrategy()
        assert strategy.relay_probability(a) == \
            strategy.relay_probability(b)


class TestNotG2:
    def test_uniform_across_auxes(self):
        table = {
            (100, 1): 0.9, (1, 200): 0.9, (200, 1): 0.9,
            (100, 2): 0.9, (2, 200): 0.1, (200, 2): 0.1,
            (100, 200): 0.5,
        }
        base = dict(aux_ids=(1, 2), src=100, dst=200, p=lookup(table))
        strategy = IgnoreDestConnectivityStrategy()
        r1 = strategy.relay_probability(RelayContext(self_id=1, **base))
        r2 = strategy.relay_probability(RelayContext(self_id=2, **base))
        assert r1 == pytest.approx(r2)

    def test_inverse_of_total_contention(self):
        ctx = symmetric_context(4, p_hear=0.8, p_dst=0.7, p_src_dst=0.5)
        c = contention_probability(ctx.p, ctx.src, ctx.dst, 1)
        expected = min(1.0, 1.0 / (4 * c))
        assert IgnoreDestConnectivityStrategy().relay_probability(ctx) == \
            pytest.approx(expected)


class TestNotG3:
    def test_best_aux_relays_fully_when_needed(self):
        # One strong aux cannot alone guarantee a delivery; it must
        # relay with probability 1.
        ctx = symmetric_context(1, p_hear=0.9, p_dst=0.6, p_src_dst=0.2)
        assert ExpectedDeliveryStrategy().relay_probability(ctx) == 1.0

    def test_weaker_aux_gets_fractional_remainder(self):
        table = {
            (100, 1): 1.0, (1, 200): 0.8, (200, 1): 0.8,
            (100, 2): 1.0, (2, 200): 0.5, (200, 2): 0.5,
            (100, 200): 0.0,  # all acks impossible: c_i = 1
        }
        base = dict(aux_ids=(1, 2), src=100, dst=200, p=lookup(table))
        strategy = ExpectedDeliveryStrategy()
        r1 = strategy.relay_probability(RelayContext(self_id=1, **base))
        r2 = strategy.relay_probability(RelayContext(self_id=2, **base))
        # Best aux saturates (0.8 < 1 expected delivery), second covers
        # the remainder: 0.8 + r2 * 0.5 = 1.
        assert r1 == 1.0
        assert r2 == pytest.approx((1 - 0.8) / 0.5)

    def test_expected_deliveries_one_when_feasible(self):
        table = {
            (100, 1): 1.0, (1, 200): 0.7, (200, 1): 0.7,
            (100, 2): 1.0, (2, 200): 0.6, (200, 2): 0.6,
            (100, 3): 1.0, (3, 200): 0.5, (200, 3): 0.5,
            (100, 200): 0.0,
        }
        base = dict(aux_ids=(1, 2, 3), src=100, dst=200, p=lookup(table))
        strategy = ExpectedDeliveryStrategy()
        total = 0.0
        for aux, p_dst in ((1, 0.7), (2, 0.6), (3, 0.5)):
            r = strategy.relay_probability(
                RelayContext(self_id=aux, **base))
            total += r * p_dst * 1.0  # c_i = 1 here
        assert total == pytest.approx(1.0)

    def test_overprovisioned_aux_does_not_relay(self):
        # Ten auxes with perfect links: the first saturates the
        # constraint, so a low-ranked aux must not relay.
        table = {(100, 200): 0.0}
        for aux in range(1, 11):
            table[(100, aux)] = 1.0
            table[(aux, 200)] = 1.0
            table[(200, aux)] = 1.0
        ctx = RelayContext(self_id=10, aux_ids=tuple(range(1, 11)),
                           src=100, dst=200, p=lookup(table))
        assert ExpectedDeliveryStrategy().relay_probability(ctx) == \
            pytest.approx(0.0)


class TestFactory:
    def test_known_names(self):
        for name, cls in (
            ("vifi", ViFiRelayStrategy),
            ("not-g1", IgnoreOthersStrategy),
            ("not-g2", IgnoreDestConnectivityStrategy),
            ("not-g3", ExpectedDeliveryStrategy),
        ):
            assert isinstance(make_strategy(name), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("definitely-not-a-strategy")

    def test_probabilities_always_valid(self):
        for name in ("vifi", "not-g1", "not-g2", "not-g3"):
            strategy = make_strategy(name)
            for k in (1, 3, 6):
                for p_sd in (0.0, 0.4, 0.95):
                    ctx = symmetric_context(k, 0.7, 0.55, p_sd)
                    r = strategy.relay_probability(ctx)
                    assert 0.0 <= r <= 1.0
                    assert math.isfinite(r)

