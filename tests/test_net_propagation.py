"""Unit tests for the radio profile's formulas and for the link bank,
the one evaluator of the propagation layers: shadowing, the spatial
field, gray periods and the bucket-centre fill."""

import hashlib

import numpy as np
import pytest

from repro.net.propagation import (
    GrayPeriodProcess,
    LinkBank,
    RadioProfile,
    Shadowing,
    SpatialField,
)
from repro.sim.rng import RngRegistry
from repro.testbeds.vanlan import VanLanTestbed


def _rng(name="p"):
    return RngRegistry(7).fresh(name)


class _Line:
    """An endpoint moving from ``(x0, y0)`` at velocity ``(vx, vy)``,
    with the array form a bank places it by."""

    def __init__(self, x0, y0, vx=0.0, vy=0.0):
        self.x0, self.y0, self.vx, self.vy = x0, y0, vx, vy

    def __call__(self, t):
        return (self.x0 + self.vx * t, self.y0 + self.vy * t)

    def positions_at(self, t):
        return self(np.asarray(t, dtype=np.float64))


def _bank(motion, profile=None, shadowing=None, gray=None, spatial=None):
    """A one-link bank from a basestation at the origin to the moving
    *motion*; the layers not under test are ``None``."""
    return LinkBank(profile or RadioProfile(), motion, [(0.0, 0.0)],
                    [shadowing], [gray], [spatial])


def _offsets(bank, times):
    """The one link's RSSI over its path-loss mean at *times*: the sum
    of its shadowing and spatial layers."""
    rssi, _ = bank.evaluate(times)
    px, py = bank.motion.positions_at(times)
    return rssi[0] - bank.profile.mean_rssi(np.hypot(px, py))


def _shadowing_at(shadowing, times):
    return _offsets(_bank(_Line(10.0, 0.0), shadowing=shadowing), times)


def _field_along(field, line, times):
    return _offsets(_bank(line, spatial=field), times)


def _gray_flags(gray, times):
    """Whether each instant lies in a gray period, read off a 10 m link
    whose reception stays far above the gray residual outside them."""
    bank = _bank(_Line(10.0, 0.0), gray=gray)
    _, prob = bank.evaluate(times)
    return prob[0] == bank.profile.gray_residual_reception


class TestRadioProfile:
    def test_rssi_decreases_with_distance(self):
        profile = RadioProfile()
        assert profile.mean_rssi(10) > profile.mean_rssi(100)
        assert profile.mean_rssi(100) > profile.mean_rssi(500)

    def test_rssi_clamps_below_one_metre(self):
        profile = RadioProfile()
        assert profile.mean_rssi(0.1) == profile.mean_rssi(1.0)

    def test_reception_monotone_in_rssi(self):
        profile = RadioProfile()
        probs = [profile.reception_prob(r) for r in (-95, -88, -80)]
        assert probs[0] < probs[1] < probs[2]

    def test_reception_midpoint(self):
        profile = RadioProfile(decode_mid_dbm=-88.0, max_reception=1.0)
        assert profile.reception_prob(-88.0) == pytest.approx(0.5)

    def test_noise_floor_blocks_reception(self):
        profile = RadioProfile(noise_floor_dbm=-100.0)
        assert profile.reception_prob(-101.0) == 0.0

    def test_max_reception_caps_curve(self):
        profile = RadioProfile(max_reception=0.8)
        assert profile.reception_prob(0.0) == pytest.approx(0.8)

    def test_extreme_arguments_do_not_overflow(self):
        profile = RadioProfile()
        assert profile.reception_prob(200.0) == profile.max_reception
        assert profile.reception_prob(-99.9) >= 0.0


class TestShadowing:
    def test_stationary_variance(self):
        shadowing = Shadowing(sigma_db=6.0, tau_s=10.0, rng=_rng("sh"))
        samples = _shadowing_at(shadowing, np.arange(5000.0))
        assert abs(samples.mean()) < 1.0
        assert 0.5 * 36 < samples.var() < 1.5 * 36

    def test_temporal_correlation_decays(self):
        shadowing = Shadowing(sigma_db=6.0, tau_s=10.0, rng=_rng("sc"))
        a, near = _shadowing_at(shadowing, [100.0, 100.5])
        assert abs(a - near) < 6.0  # strongly correlated nearby

    def test_interpolation_continuous(self):
        shadowing = Shadowing(sigma_db=6.0, tau_s=5.0, rng=_rng("si"))
        v1, v2 = _shadowing_at(shadowing, [3.49, 3.51])
        assert abs(v1 - v2) < 1.0

    def test_negative_time_rejected(self):
        """The lattice starts at time zero and is interpolated forward,
        so the bank refuses earlier or descending instants."""
        bank = _bank(_Line(10.0, 0.0), shadowing=Shadowing(6.0, 5.0, _rng()))
        with pytest.raises(ValueError):
            bank.evaluate([-1.0])
        with pytest.raises(ValueError):
            bank.evaluate([2.0, 1.0])


class TestSpatialField:
    def test_deterministic_for_same_stream(self):
        a = SpatialField(4.0, 50.0, _rng("f"))
        b = SpatialField(4.0, 50.0, _rng("f"))
        at = _Line(10.0, 20.0)
        assert _field_along(a, at, [0.0]) == _field_along(b, at, [0.0])

    def test_spatial_correlation(self):
        field = SpatialField(4.0, 80.0, _rng("fc"))
        # (100, 100) at t=0 and (103, 100) at t=1.
        here, there = _field_along(field, _Line(100.0, 100.0, vx=3.0),
                                   [0.0, 1.0])
        assert abs(here - there) < 2.0  # well inside correlation length

    def test_variance_scale(self):
        field = SpatialField(4.0, 30.0, _rng("fv"))
        values = _field_along(field, _Line(0.0, 0.0, vx=17.3, vy=9.1),
                              np.arange(2000.0))
        assert 0.4 * 16 < values.var() < 1.8 * 16


class TestGrayPeriods:
    def test_no_events_at_zero_rate(self):
        gray = GrayPeriodProcess(0.0, 2.0, _rng())
        assert not _gray_flags(gray, np.arange(100) * 10.0).any()

    def test_fraction_of_time_matches_rate(self):
        gray = GrayPeriodProcess(1.0 / 20.0, 2.0, _rng("g"))
        fraction = _gray_flags(gray, np.arange(20000) * 0.5).mean()
        # Expected duty cycle ~ rate * duration = 0.1.
        assert 0.05 < fraction < 0.2

    def test_periods_are_contiguous(self):
        gray = GrayPeriodProcess(1.0 / 10.0, 5.0, _rng("gc"))
        flags = _gray_flags(gray, np.arange(5000) * 0.1)
        # Count transitions; with mean duration 5 s there should be far
        # fewer transitions than gray samples.
        transitions = np.count_nonzero(flags[1:] != flags[:-1])
        assert transitions < flags.sum() / 5


class TestLinkModel:
    def test_reception_prob_decreases_with_distance(self):
        _, near = _bank(_Line(50.0, 0.0)).evaluate([0.0])
        _, far = _bank(_Line(300.0, 0.0)).evaluate([0.0])
        assert near[0, 0] > far[0, 0]

    def test_gray_period_collapses_reception(self):
        gray = GrayPeriodProcess(0.0, 1.0, _rng())
        gray._append(0.0, 10.0)
        bank = _bank(_Line(30.0, 0.0), gray=gray)
        _, prob = bank.evaluate([0.0, 5.0, 10.0])
        residual = bank.profile.gray_residual_reception
        assert (prob[0, :2] <= residual).all()
        assert prob[0, 2] > residual  # the period ends at 10 s

    def test_moving_endpoint_changes_distance(self):
        profile = RadioProfile()
        bank = _bank(_Line(0.0, 0.0, vx=10.0), profile)
        rssi, _ = bank.evaluate([1.0, 10.0])
        assert rssi[0].tolist() == \
            profile.mean_rssi(np.array([10.0, 100.0])).tolist()


def _centre_bank(seed, prefill_s=None):
    testbed = VanLanTestbed(seed=seed)
    motion = testbed.vehicle_motion()
    bank = testbed.build_link_bank(0, motion, prefill_s=prefill_s)
    return testbed, motion, bank


class TestLinkBank:
    def test_prefilled_equals_lazy_over_full_trip(self):
        """Satellite: same buckets, same values, same RNG consumption.

        A prefilled bank and a lazily filled twin walk the whole trip;
        every bucket must agree bit for bit, and afterwards the
        underlying stochastic processes must have consumed their
        streams identically (prefill extends them deterministically to
        the same horizon a full lazy walk reaches).
        """
        _, motion, lazy = _centre_bank(seed=7)
        duration = motion.duration
        _, _, filled = _centre_bank(seed=7, prefill_s=duration)
        assert filled.prefill_wall_s > 0.0
        assert filled.prefilled_until == duration
        n_buckets = int(duration / LinkBank.QUANTUM_S)
        for key in range(n_buckets):
            for i in range(lazy.n_links):
                assert filled.prob_at(i, key) == lazy.prob_at(i, key)
        for shadow_f, shadow_l in zip(filled._shadowings, lazy._shadowings):
            assert shadow_f.rng.bit_generator.state == \
                shadow_l.rng.bit_generator.state
            assert len(shadow_f._values) == len(shadow_l._values)
        for gray_f, gray_l in zip(filled._grays, lazy._grays):
            assert gray_f.rng.bit_generator.state == \
                gray_l.rng.bit_generator.state

    def test_bucket_value_independent_of_query_order(self):
        """Skipping ahead and returning reads the same bucket values."""
        _, _, bank_a = _centre_bank(seed=3)
        _, _, bank_b = _centre_bank(seed=3)
        keys_a = [5, 6, 7, 2000, 2001]
        keys_b = [2000, 5, 2001, 6, 7]  # different order, same buckets
        reads_a = {k: bank_a.prob_at(0, k) for k in keys_a}
        reads_b = {k: bank_b.prob_at(0, k) for k in keys_b}
        assert reads_a == reads_b

    def test_evaluate_at_bucket_centres_equals_filled_buckets(self):
        """The bucket fill and :meth:`LinkBank.evaluate` are one
        pipeline: evaluating a trip's bucket centres, all of them or
        every third, reproduces the filled buckets bit for bit."""
        testbed = VanLanTestbed(seed=11)
        motion = testbed.vehicle_motion()
        filled = testbed.build_link_bank(0, motion,
                                         prefill_s=motion.duration)
        buckets = np.concatenate(
            [filled._chunks[c] for c in sorted(filled._chunks)], axis=1)
        centres = (np.arange(buckets.shape[1], dtype=np.float64) + 0.5) \
            * LinkBank.QUANTUM_S
        _, prob = testbed.build_link_bank(0, motion).evaluate(centres)
        assert prob.tobytes() == buckets.tobytes()
        _, every_third = testbed.build_link_bank(0, motion).evaluate(
            centres[::3])
        assert every_third.tobytes() == \
            np.ascontiguousarray(buckets[:, ::3]).tobytes()

    def test_bare_link_equals_profile_formulas(self):
        """Without shadowing, gray periods or a spatial field, a link
        reads the profile's path loss and decode curve exactly, from
        inside the 1 m reference out past the noise floor."""
        profile = RadioProfile()
        distances = np.array([0.5, 1.0, 10.0, 50.0, 120.0, 300.0, 2000.0])
        # The endpoint moves 1 m/s, so the link spans t metres at t.
        rssi, prob = _bank(_Line(0.0, 0.0, vx=1.0), profile).evaluate(
            distances)
        expected = profile.mean_rssi(distances)
        assert rssi[0].tolist() == expected.tolist()
        assert prob[0].tolist() == profile.reception_prob(expected).tolist()
        assert prob[0, -1] == 0.0 and prob[0, 0] > 0.9

    def test_prefilled_trip_bytes_are_pinned(self):
        """Every prefilled probability chunk of VanLAN trip 0 hashes to
        the value recorded while chunks still stored an RSSI half next
        to it (the same probability bytes, hashed alone): dropping that
        half, like the earlier move to whole-chunk array passes,
        changes memory and speed, never a bucket's bits."""
        testbed = VanLanTestbed(seed=0)
        motion = testbed.vehicle_motion()
        bank = testbed.build_link_bank(0, motion,
                                       prefill_s=motion.duration)
        digest = hashlib.sha256()
        for chunk in sorted(bank._chunks):
            prob = bank._chunks[chunk]
            digest.update(np.ascontiguousarray(prob).tobytes())
        assert len(bank._chunks) == 38
        assert digest.hexdigest() == (
            "17f68f9c734dd8de3cecc0c9bd73dc37"
            "e5925e9c334135b92d52f12e834c2975")

    def test_spatial_fields_all_or_none(self):
        """The banked field matrices hold one row per link at one cache
        quantum, so a bank refuses a partial or mixed set."""
        motion = VanLanTestbed(seed=2).vehicle_motion()
        fields = [SpatialField(4.0, 70.0, _rng("a")),
                  SpatialField(4.0, 70.0, _rng("b"), cache_quantum_m=1.0)]
        for spatials in ([fields[0], None], fields):
            with pytest.raises(ValueError):
                LinkBank(RadioProfile(), motion, [(0.0, 0.0), (9.0, 9.0)],
                         [None, None], [None, None], spatials)


class TestGrayPeriodFastPath:
    def test_bisect_matches_dense_scan(self):
        """The bank's bisection overlay flags exactly the instants that
        a dense scan over every merged interval finds."""
        gray = GrayPeriodProcess(1.0 / 15.0, 3.0, RngRegistry(5).fresh("g"))
        times = np.arange(0, 40000, 7) * 0.05
        flags = _gray_flags(gray, times)
        starts = np.asarray(gray._starts)[:, None]
        ends = np.asarray(gray._ends)[:, None]
        dense = ((starts <= times) & (times < ends)).any(axis=0)
        assert dense.any()
        assert flags.tolist() == dense.tolist()
