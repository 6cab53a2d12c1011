"""Unit tests for beacon-based reception-probability estimation.

The shared behaviour tests run against both implementations: the
per-node dict :class:`ReceptionEstimator` (the reference oracle) and a
view onto the struct-of-arrays :class:`EstimatorBank` — the observable
behaviour of the two is identical wherever the fold instants match
(the bank's ``tick_second`` view hook folds the whole bank, which in a
one-view scenario is exactly the oracle's fold).  The bank-only tests
below check bit-for-bit agreement with the oracle over random beacon
schedules, the period-aligned single fold event, and bounded per-peer
state.  Last, the bank views' batched beacon ingest and cached beacon
reports are checked to be observationally eager.
"""

import itertools
import random

import pytest

from repro.core.probabilities import EstimatorBank, ReceptionEstimator
from repro.core.relaying import RelayContext, make_strategy
from repro.net.packet import Beacon
from repro.sim.engine import Simulator


def beacon(sender, incoming=None, learned=None, t=0.0):
    return Beacon(sender=sender, sent_at=t,
                  incoming=incoming or {}, learned=learned or {})


@pytest.fixture(params=["dict", "array"])
def make_estimator(request):
    """Factory building either estimator backend over a 10-node
    universe (covering every id the tests use)."""
    def make(node_id, **kwargs):
        if request.param == "dict":
            return ReceptionEstimator(node_id, **kwargs)
        bank = EstimatorBank(tuple(range(10)), **kwargs)
        return bank.view(node_id)
    return make


class TestFirstHandEstimation:
    def test_full_reception_converges_to_one(self, make_estimator):
        est = make_estimator(1)
        for sec in range(8):
            for k in range(10):
                est.on_beacon(beacon(2), now=sec + k * 0.1)
            est.tick_second(now=sec + 1.0)
        assert est.incoming_probability(2) == pytest.approx(1.0, abs=0.01)

    def test_exponential_average_half_life(self, make_estimator):
        est = make_estimator(1, alpha=0.5)
        for k in range(10):
            est.on_beacon(beacon(2), now=k * 0.1)
        est.tick_second(now=1.0)
        assert est.incoming_probability(2) == pytest.approx(0.5)
        est.tick_second(now=2.0)  # silent second decays by half
        assert est.incoming_probability(2) == pytest.approx(0.25)

    def test_silent_peer_eventually_forgotten(self, make_estimator):
        est = make_estimator(1, forget_below=0.05)
        for k in range(10):
            est.on_beacon(beacon(2), now=k * 0.1)
        for sec in range(1, 8):
            est.tick_second(now=float(sec))
        assert est.incoming_probability(2) == 0.0

    def test_partial_reception_ratio(self, make_estimator):
        est = make_estimator(1, alpha=1.0)
        for k in range(6):
            est.on_beacon(beacon(2), now=k * 0.1)
        est.tick_second(now=1.0)
        assert est.incoming_probability(2) == pytest.approx(0.6)


class TestDissemination:
    def test_incoming_reports_teach_pair_probabilities(
            self, make_estimator):
        est = make_estimator(3)
        est.on_beacon(beacon(2, incoming={5: 0.7}), now=1.0)
        assert est.probability(5, 2, now=1.5) == 0.7

    def test_learned_reports_teach_outgoing(self, make_estimator):
        est = make_estimator(3)
        est.on_beacon(beacon(2, learned={7: 0.4}), now=1.0)
        assert est.probability(2, 7, now=1.5) == 0.4

    def test_own_outgoing_learned_from_peer(self, make_estimator):
        """p(self -> peer) comes from the peer's incoming report."""
        est = make_estimator(3)
        est.on_beacon(beacon(2, incoming={3: 0.55}), now=1.0)
        assert est.probability(3, 2, now=1.5) == 0.55

    def test_stale_entries_distrusted(self, make_estimator):
        est = make_estimator(3, stale_s=5.0)
        est.on_beacon(beacon(2, incoming={5: 0.7}), now=1.0)
        assert est.probability(5, 2, now=10.0) == 0.0

    def test_first_hand_wins_for_own_incoming(self, make_estimator):
        est = make_estimator(1, alpha=1.0)
        for k in range(10):
            est.on_beacon(beacon(2), now=k * 0.1)
        est.tick_second(now=1.0)
        # A third party claims p(2 -> 1) is 0.1; our own estimate (1.0)
        # must win.
        est.on_beacon(beacon(9, learned={1: 0.1}), now=1.1)
        assert est.probability(2, 1, now=1.2) == pytest.approx(1.0)

    def test_self_probability_is_one(self, make_estimator):
        est = make_estimator(1)
        assert est.probability(1, 1, now=0.0) == 1.0

    def test_unknown_pair_is_zero(self, make_estimator):
        est = make_estimator(1)
        assert est.probability(5, 6, now=0.0) == 0.0


class TestBeaconReports:
    def test_reports_round_trip(self, make_estimator):
        est = make_estimator(1, alpha=1.0)
        for k in range(10):
            est.on_beacon(beacon(2), now=k * 0.1)
        est.tick_second(now=1.0)
        est.on_beacon(beacon(2, incoming={1: 0.8}), now=1.1)
        incoming, learned = est.beacon_reports(now=1.2)
        assert incoming[2] == pytest.approx(1.0)
        assert learned[2] == 0.8  # p(1 -> 2) learned from 2's beacon

    def test_probability_lookup_binds_time(self, make_estimator):
        est = make_estimator(3, stale_s=2.0)
        est.on_beacon(beacon(2, incoming={5: 0.7}), now=0.0)
        fresh = est.probability_lookup(now=1.0)
        stale = est.probability_lookup(now=10.0)
        assert fresh(5, 2) == 0.7
        assert stale(5, 2) == 0.0


class TestRecency:
    def test_heard_recently(self, make_estimator):
        est = make_estimator(1)
        est.on_beacon(beacon(2), now=5.0)
        assert est.heard_recently(2, now=6.0, within_s=2.0)
        assert not est.heard_recently(2, now=9.0, within_s=2.0)
        assert not est.heard_recently(3, now=5.0, within_s=2.0)

    def test_peers_heard_within(self, make_estimator):
        est = make_estimator(1)
        est.on_beacon(beacon(2), now=1.0)
        est.on_beacon(beacon(3), now=4.0)
        assert set(est.peers_heard_within(now=4.5, within_s=2.0)) == {3}


class TestBankConstruction:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            EstimatorBank((1, 2, 2))

    def test_unknown_view_rejected(self):
        with pytest.raises(KeyError):
            EstimatorBank((1, 2)).view(7)

    def test_view_is_memoized(self):
        bank = EstimatorBank((1, 2))
        assert bank.view(1) is bank.view(1)

    def test_register_needs_a_simulator(self):
        with pytest.raises(ValueError):
            EstimatorBank((1, 2)).register(object())


# ----------------------------------------------------------------------
# The bank against its reference oracle
# ----------------------------------------------------------------------

class TestUnitEquivalence:
    IDS = (1, 2, 3, 4, 5, 6)

    def _drive_pair(self, seed=0, seconds=12, stale_s=5.0):
        """One bank view and one reference oracle fed identical input.

        Beacons are randomized over a six-node universe; both
        estimators tick at every integer second, so the fold windows —
        and therefore every fold input — line up exactly.
        """
        bank = EstimatorBank(self.IDS, stale_s=stale_s)
        banked = bank.view(1)
        legacy = ReceptionEstimator(1, stale_s=stale_s)
        rng = random.Random(seed)
        events = []
        for second in range(seconds):
            for k in range(rng.randrange(3, 12)):
                sender = rng.choice(self.IDS[1:])
                incoming = {
                    peer: round(rng.random(), 3)
                    for peer in rng.sample(self.IDS, rng.randrange(0, 4))
                    if peer != sender
                }
                learned = {
                    peer: round(rng.random(), 3)
                    for peer in rng.sample(self.IDS, rng.randrange(0, 3))
                    if peer != sender
                }
                events.append((second + rng.random(),
                               beacon(sender, incoming, learned)))
        events.sort(key=lambda e: e[0])
        tick = 1.0
        for t, frame in events:
            while tick <= t:
                bank.tick_second(tick)
                legacy.tick_second(tick)
                yield banked, legacy, tick
                tick += 1.0
            banked.on_beacon(frame, t)
            legacy.on_beacon(frame, t)
            yield banked, legacy, t

    def _assert_queries_equal(self, banked, legacy, now):
        lookup = banked.probability_lookup(now)
        for a in self.IDS:
            for b in self.IDS:
                want = legacy.probability(a, b, now)
                assert banked.probability(a, b, now) == want
                assert lookup(a, b) == want
            assert banked.incoming_probability(a) == \
                legacy.incoming_probability(a)
        assert banked.incoming_estimates() == legacy.incoming_estimates()
        b_inc, b_learned = banked.beacon_reports(now)
        l_inc, l_learned = legacy.beacon_reports(now)
        assert dict(b_inc) == dict(l_inc)
        assert dict(b_learned) == dict(l_learned)
        # Recency within the staleness horizon (beyond it the bank has
        # pruned — and the oracle answers False anyway through the
        # freshness check in every probability query).
        assert sorted(banked.peers_heard_within(now, 2.0)) == \
            sorted(legacy.peers_heard_within(now, 2.0))
        for peer in self.IDS:
            assert banked.heard_recently(peer, now, 1.5) == \
                legacy.heard_recently(peer, now, 1.5)

    def test_query_surface_is_bitwise_equal(self):
        checked = 0
        for banked, legacy, now in self._drive_pair(seed=3):
            self._assert_queries_equal(banked, legacy, now)
            checked += 1
        assert checked > 50

    def test_relay_tables_are_bitwise_equal(self):
        """Every formulation decides alike over a view and the oracle.

        Along the randomized schedule, each strategy's relay
        probability over the bank view's lookup equals the one over
        the oracle's, bit for bit, with each auxiliary as the decider
        and the estimator's node as destination, source or bystander.
        The short horizon lets reports go stale between beacons.
        """
        aux_ids = (3, 4, 5)
        strategies = [make_strategy(name)
                      for name in ("vifi", "not-g1", "not-g2", "not-g3")]
        seen = set()
        for stale_s in (5.0, 0.5):
            for banked, legacy, now in self._drive_pair(seed=11,
                                                        stale_s=stale_s):
                p_banked = banked.probability_lookup(now)
                p_legacy = legacy.probability_lookup(now)
                for (src, dst), strategy, self_id in itertools.product(
                        ((2, 1), (1, 2), (6, 2)), strategies, aux_ids):
                    r_banked = strategy.relay_probability(RelayContext(
                        self_id, aux_ids, src, dst, p_banked))
                    assert r_banked == strategy.relay_probability(
                        RelayContext(self_id, aux_ids, src, dst, p_legacy))
                    seen.add(r_banked)
        # The schedule reaches far past the degenerate 0/1 answers.
        assert len(seen) > 50


class TestFirstTickAlignment:
    def test_first_fold_window_is_one_second(self):
        """Satellite regression: the first-second ratio is unbiased.

        A peer beaconing every 0.2 s has a true per-second reception
        ratio of 0.5 against a 10/s budget.  The bank's period-aligned
        first fold covers exactly one second and recovers that ratio.
        (In the protocol the simulator delivers beacons in time order,
        so nothing past the fold instant is pending.)
        """
        bank = EstimatorBank((1, 2), alpha=1.0)
        est = bank.view(1)
        t = 0.05
        while t < 1.0:
            est.on_beacon(beacon(2), t)
            t += 0.2
        bank.tick_second(1.0)
        assert est.incoming_probability(2) == pytest.approx(0.5)

    def test_bank_event_is_period_aligned(self):
        """The protocol bank arms one second after registration."""
        sim = Simulator()
        bank = EstimatorBank((1, 2), sim=sim)
        est = bank.view(1)

        class _Node:
            def on_second(self):
                pass

        bank.register(_Node())
        est.on_beacon(beacon(2), 0.4)
        sim.run(until=0.99)
        assert bank.fold_count == 0
        sim.run(until=1.0)
        assert bank.fold_count == 1


class TestSingleTickEvent:
    def test_one_heap_event_folds_every_node(self):
        sim = Simulator()
        bank = EstimatorBank((1, 2, 3), sim=sim)
        calls = []

        class _Node:
            def __init__(self, name):
                self.name = name

            def on_second(self):
                calls.append((self.name, sim.now))

        for name in ("a", "b", "c"):
            bank.register(_Node(name))
        sim.run(until=5.5)
        # One fire-and-forget event per second — not one per node —
        # and every registered hook runs at each fold, in
        # registration order.
        assert sim.events_processed == 5
        assert bank.fold_count == 5
        assert calls == [(name, float(second))
                         for second in range(1, 6)
                         for name in ("a", "b", "c")]


class TestBoundedPeerState:
    def test_forgotten_peers_drop_their_dissemination_state(self):
        """Satellite regression: state is bounded by live peers.

        Fifty peers beacon once each, one per second; the reference
        oracle keeps every peer ever heard in ``_last_heard`` /
        ``_reports``, while the bank prunes a peer as soon as it falls
        past the staleness horizon.
        """
        stale_s = 3.0
        n_peers = 50
        ids = tuple(range(n_peers + 1))
        bank = EstimatorBank(ids, stale_s=stale_s)
        banked = bank.view(0)
        legacy = ReceptionEstimator(0, stale_s=stale_s)
        for second in range(n_peers):
            frame = beacon(second + 1, incoming={0: 0.5},
                           learned={3: 0.4})
            banked.on_beacon(frame, second + 0.5)
            legacy.on_beacon(frame, second + 0.5)
            bank.tick_second(second + 1.0)
            legacy.tick_second(second + 1.0)
        live = len(banked.peers_heard_within(float(n_peers), stale_s))
        assert live <= stale_s + 1
        # The bank's per-peer state is bounded by the live-peer count.
        assert len(banked._reports) <= live + 1
        assert len(banked._outgoing) <= live + 1
        # The oracle grew with every peer ever heard (the unbounded
        # growth the bank avoids).
        assert len(legacy._last_heard) == n_peers
        assert len(legacy._reports) == n_peers
        assert len(legacy._outgoing) == n_peers
        # Pruned state is invisible to queries: both agree that
        # long-silent peers are gone.
        now = float(n_peers)
        for peer in (1, 10, 25):
            assert banked.probability(0, peer, now) == \
                legacy.probability(0, peer, now) == 0.0

    def test_learned_map_rebuild_stays_bounded(self):
        """The beacon ``learned`` rebuild iterates live peers only."""
        stale_s = 2.0
        ids = tuple(range(31))
        bank = EstimatorBank(ids, stale_s=stale_s)
        est = bank.view(0)
        for second in range(30):
            est.on_beacon(
                beacon(second + 1, incoming={0: 0.6}), second + 0.5
            )
            bank.tick_second(second + 1.0)
        _, learned = est.beacon_reports(30.0)
        assert len(learned) <= stale_s + 1
        assert len(est._outgoing) <= stale_s + 1


class TestEstimatorBatchedIngest:
    """Bank views batch beacon ingest and cache beacon reports."""

    IDS = (1, 2, 3, 4, 5, 6)

    def test_lazy_flush_is_observationally_eager(self):
        """Query-per-beacon and query-at-end see identical state."""
        eager = EstimatorBank(self.IDS).view(1)
        lazy = EstimatorBank(self.IDS).view(1)
        rng = random.Random(7)
        beacons = []
        for k in range(200):
            sender = rng.choice([2, 3, 4])
            beacons.append((beacon(
                sender,
                incoming={1: rng.random(), 5: rng.random()},
                learned={6: rng.random()},
            ), 0.01 * k))
        for frame, now in beacons:
            eager.on_beacon(frame, now)
            # Force an immediate fold on the eager instance.
            assert eager.probability(frame.sender, 1, now) >= 0.0
            lazy.on_beacon(frame, now)
        final = beacons[-1][1]
        for a in (2, 3, 4, 5, 6):
            for b in (1, 2, 3, 4, 5, 6):
                assert lazy.probability(a, b, final) == \
                    eager.probability(a, b, final)
        assert sorted(lazy.peers_heard_within(final, 10.0)) == \
            sorted(eager.peers_heard_within(final, 10.0))
        lazy.tick_second(2.0)
        eager.tick_second(2.0)
        assert lazy.incoming_estimates() == eager.incoming_estimates()

    def test_beacon_reports_shared_maps_are_frozen(self):
        """A sent beacon's maps never change after the fact (COW)."""
        est = EstimatorBank(self.IDS).view(1)
        est.on_beacon(beacon(2, incoming={1: 0.5}), now=0.0)
        incoming_1, learned_1 = est.beacon_reports(now=0.1)
        snapshot = dict(learned_1)
        # A later peer report about node 1 must not mutate the maps
        # already embedded in transmitted beacons.
        est.on_beacon(beacon(3, incoming={1: 0.9}), now=0.2)
        _, learned_2 = est.beacon_reports(now=0.3)
        assert dict(learned_1) == snapshot
        assert learned_2[3] == 0.9

    def test_beacon_reports_match_fresh_build(self):
        """Cached reports equal the oracle's rebuild at every instant."""
        est = EstimatorBank(self.IDS, stale_s=1.0).view(1)
        oracle = ReceptionEstimator(1, stale_s=1.0)
        for frame, t in ((beacon(2, incoming={1: 0.5}), 0.0),
                         (beacon(3, incoming={1: 0.7}), 0.4)):
            est.on_beacon(frame, t)
            oracle.on_beacon(frame, t)
        for now in (0.5, 0.9, 1.05, 1.2, 1.45, 2.0):
            incoming, learned = est.beacon_reports(now=now)
            expected_incoming, expected_learned = \
                oracle.beacon_reports(now=now)
            assert dict(incoming) == expected_incoming
            assert dict(learned) == expected_learned
