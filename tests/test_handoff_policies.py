"""Unit tests for the six handoff policies and the evaluator."""

import numpy as np
import pytest

from repro.experiments.study import policy_factories
from repro.handoff.base import PerSecondObservation
from repro.handoff.evaluator import evaluate_policy
from repro.handoff.policies import (
    AllBsesPolicy,
    BestBsPolicy,
    BrrPolicy,
    HistoryPolicy,
    RssiPolicy,
    StickyPolicy,
)
from repro.testbeds.traces import ProbeTrace


def obs(second, heard=None, rssi=None, position=(0.0, 0.0)):
    return PerSecondObservation(
        second=second,
        beacons_heard=heard or {},
        beacons_expected=10,
        mean_rssi=rssi or {},
        position=position,
    )


def make_trace(up, down, rssi=None, bs_ids=None, slot_dt=0.1):
    up = np.asarray(up, dtype=bool)
    n_slots, n_bs = up.shape
    down = np.asarray(down, dtype=bool)
    if rssi is None:
        rssi = np.where(down, -80.0, np.nan)
    positions = np.zeros((n_slots, 2))
    positions[:, 0] = np.arange(n_slots) * 1.0
    return ProbeTrace(
        bs_ids=bs_ids or list(range(1, n_bs + 1)),
        slot_dt=slot_dt,
        up=up,
        down=down,
        rssi=rssi,
        positions=positions,
    )


class TestRssiPolicy:
    def test_picks_strongest(self):
        policy = RssiPolicy()
        policy.reset()
        policy.observe(obs(0, heard={1: 5, 2: 5},
                           rssi={1: -70.0, 2: -85.0}))
        assert policy.choose() == 1

    def test_exponential_average_resists_blips(self):
        policy = RssiPolicy()
        policy.reset()
        for sec in range(5):
            policy.observe(obs(sec, heard={1: 5, 2: 5},
                               rssi={1: -70.0, 2: -85.0}))
        # One strong blip from BS 2 must not immediately win.
        policy.observe(obs(5, heard={1: 5, 2: 5},
                           rssi={1: -70.0, 2: -60.0}))
        assert policy.choose() == 1

    def test_stale_bs_forgotten(self):
        policy = RssiPolicy()
        policy.reset()
        policy.observe(obs(0, heard={1: 5}, rssi={1: -60.0}))
        for sec in range(1, 5):
            policy.observe(obs(sec, heard={2: 5}, rssi={2: -90.0}))
        assert policy.choose() == 2

    def test_no_beacons_no_choice(self):
        policy = RssiPolicy()
        policy.reset()
        assert policy.choose() is None


class TestBrrPolicy:
    def test_picks_highest_ratio(self):
        policy = BrrPolicy()
        policy.reset()
        policy.observe(obs(0, heard={1: 9, 2: 3}))
        assert policy.choose() == 1

    def test_silence_decays_average(self):
        policy = BrrPolicy()
        policy.reset()
        policy.observe(obs(0, heard={1: 10}))
        for sec in range(1, 3):
            policy.observe(obs(sec, heard={2: 6}))
        assert policy.choose() == 2


class TestStickyPolicy:
    def test_sticks_despite_stronger_alternative(self):
        policy = StickyPolicy()
        policy.reset()
        policy.observe(obs(0, heard={1: 5}, rssi={1: -80.0}))
        assert policy.choose() == 1
        policy.observe(obs(1, heard={1: 1, 2: 9},
                           rssi={1: -88.0, 2: -60.0}))
        assert policy.choose() == 1  # still hears BS 1

    def test_switches_after_silence_timeout(self):
        policy = StickyPolicy()
        policy.reset()
        policy.observe(obs(0, heard={1: 5}, rssi={1: -80.0}))
        for sec in range(1, 4):
            policy.observe(obs(sec, heard={2: 5}, rssi={2: -70.0}))
        assert policy.choose() == 2


class TestHistoryPolicy:
    def test_uses_trained_location_scores(self):
        # BS 1 dominant in the first half of the path, BS 2 in the
        # second; 40 s trace at 1 m/s along x.
        n_slots, n_bs = 400, 2
        up = np.zeros((n_slots, n_bs), dtype=bool)
        down = np.zeros((n_slots, n_bs), dtype=bool)
        up[:200, 0] = down[:200, 0] = True
        up[200:, 1] = down[200:, 1] = True
        trace = make_trace(up, down)
        policy = HistoryPolicy()
        policy.train([trace])
        policy.reset()
        policy.observe(obs(0, position=(5.0, 0.0)))
        assert policy.choose() == 1
        policy.observe(obs(1, position=(350.0, 0.0)))
        assert policy.choose() == 2

    def test_untrained_falls_back_to_rssi(self):
        policy = HistoryPolicy()
        policy.reset()
        policy.observe(obs(0, heard={3: 5}, rssi={3: -70.0},
                           position=(9999.0, 9999.0)))
        assert policy.choose() == 3


class TestOracles:
    def test_bestbs_uses_future_second(self):
        # BS 1 good in second 0, BS 2 good in second 1.
        up = np.zeros((20, 2), dtype=bool)
        down = np.zeros((20, 2), dtype=bool)
        up[:10, 0] = down[:10, 0] = True
        up[10:, 1] = down[10:, 1] = True
        trace = make_trace(up, down)
        policy = BestBsPolicy()
        policy.reset()
        policy.attach_trace(trace)
        assert policy.choose() == 1  # second 0, knows the future
        policy.observe(obs(0))
        assert policy.choose() == 2  # second 1

    def test_allbses_flags(self):
        policy = AllBsesPolicy()
        assert policy.uses_all_bs
        assert policy.choose() is None


class TestEvaluator:
    def test_hard_handoff_counts_only_associated_bs(self):
        # BS 1 passes everything; BS 2 nothing.  Policy locked to BS 1
        # after the first second; first second has no association.
        up = np.zeros((30, 2), dtype=bool)
        down = np.zeros((30, 2), dtype=bool)
        up[:, 0] = down[:, 0] = True
        trace = make_trace(up, down)
        outcome = evaluate_policy(trace, BrrPolicy())
        # Second 0: unassociated (no prior observation): 0 packets.
        # Seconds 1-2: 10 up + 10 down each.
        assert outcome.packets_delivered == 40
        assert outcome.association[0] == -1
        assert list(outcome.association[1:]) == [1, 1]

    def test_allbses_counts_any_bs(self):
        up = np.zeros((20, 2), dtype=bool)
        down = np.zeros((20, 2), dtype=bool)
        up[:, 0] = True   # BS 1 hears all uplink
        down[:, 1] = True  # BS 2 delivers all downlink
        trace = make_trace(up, down)
        outcome = evaluate_policy(trace, AllBsesPolicy())
        assert outcome.packets_delivered == 40

    def test_window_reception_ratio(self):
        up = np.zeros((20, 1), dtype=bool)
        down = np.zeros((20, 1), dtype=bool)
        up[:10] = True  # only the uplink of the first second
        trace = make_trace(up, down, bs_ids=[1])
        outcome = evaluate_policy(trace, AllBsesPolicy())
        ratios = outcome.window_reception_ratio(1.0)
        assert ratios[0] == pytest.approx(0.5)
        assert ratios[1] == pytest.approx(0.0)
        with pytest.raises(ValueError):
            outcome.window_reception_ratio(0.04)

    def test_handoff_count(self):
        up = np.zeros((40, 2), dtype=bool)
        down = np.zeros((40, 2), dtype=bool)
        down[:20, 0] = True
        down[20:, 1] = True
        up[:20, 0] = True
        up[20:, 1] = True
        trace = make_trace(up, down)
        outcome = evaluate_policy(trace, BrrPolicy())
        assert outcome.handoff_count >= 1

    def test_standard_policies_composition(self):
        """The figures build the paper's six policies, in its order,
        from one factory table; only History trains."""
        factories = policy_factories()
        assert list(factories) == [
            "RSSI", "BRR", "Sticky", "History", "BestBS", "AllBSes",
        ]
        up = np.zeros((10, 1), dtype=bool)
        training = [make_trace(up, up, bs_ids=[1])]
        for name, factory in factories.items():
            policy = factory(training if name == "History" else None)
            assert policy.name == name
        assert factories["History"](training)._scores
        assert factories["History"](None)._scores == {}
