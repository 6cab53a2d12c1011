"""Unit tests for the R-factor / MoS model and VoIP sessions."""

import pytest

from repro.apps.mos import (
    FIXED_DELAY_MS,
    WIRELESS_BUDGET_MS,
    mos_from_r,
    mos_score,
    r_factor,
)
from repro.apps.voip import VoipStream


class FixedWindows(VoipStream):
    """A voice stream whose three-second windows have the given MoS."""

    def __init__(self, window_mos):
        self.window_mos = list(window_mos)

    def window_quality(self):
        return [(m, 0.0, 0.0) for m in self.window_mos]


class TestRFactor:
    def test_clean_call_near_maximum(self):
        # 125 ms fixed budget, no loss: a good call.
        r = r_factor(125.0, 0.0)
        assert r == pytest.approx(94.2 - 0.024 * 125 - 11)

    def test_delay_penalty_kinks_at_177ms(self):
        below = r_factor(177.0, 0.0)
        above = r_factor(200.0, 0.0)
        # Beyond the knee both the linear and the Heaviside terms bite.
        expected = 94.2 - 0.024 * 200 - 0.11 * (200 - 177.3) - 11
        assert above == pytest.approx(expected)
        assert below > above

    def test_loss_uses_natural_log(self):
        """At 100% loss the call must be impossible (MoS 1)."""
        r = r_factor(177.0, 1.0)
        assert r < 0  # only true with ln, not log10
        assert mos_from_r(r) == 1.0

    def test_interruption_threshold_reachable(self):
        """MoS < 2 at ~1/3 loss — the paper's interruption regime."""
        assert mos_score(177.0, 0.40) < 2.0
        assert mos_score(177.0, 0.05) > 3.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            r_factor(100.0, 1.5)
        with pytest.raises(ValueError):
            r_factor(-1.0, 0.0)


class TestMos:
    def test_extremes(self):
        assert mos_from_r(-5.0) == 1.0
        assert mos_from_r(150.0) == 4.5

    def test_monotone_in_r(self):
        values = [mos_from_r(r) for r in (10, 30, 50, 70, 90)]
        assert values == sorted(values)

    def test_known_point(self):
        # R = 79.6: a commonly quoted "good" operating point.
        assert mos_from_r(79.6) == pytest.approx(4.0, abs=0.05)


class TestMosConfig:
    def test_paper_delay_budget(self):
        assert FIXED_DELAY_MS == pytest.approx(125.0)
        assert WIRELESS_BUDGET_MS == pytest.approx(52.0)


class TestSessions:
    def test_session_lengths(self):
        # A window at exactly MoS 2 is not an interruption.
        mos = [3, 3, 2, 1, 3, 3, 1, 1.99, 3]
        assert FixedWindows(mos).session_lengths() == [9.0, 6.0, 3.0]

    def test_all_good_single_session(self):
        assert FixedWindows([3, 3, 3, 3]).session_lengths() == [12.0]

    def test_all_bad_no_sessions(self):
        assert FixedWindows([1, 1, 1]).session_lengths() == []

    def test_empty(self):
        assert FixedWindows([]).session_lengths() == []
