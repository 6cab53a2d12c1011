"""Unit tests for the propagation model, the bucket-centre link bank,
the quantized ``LinkStateCache`` and the gray-period bisection."""

import math

import pytest

from repro.net.mobility import StationaryPosition
from repro.net.propagation import (
    GrayPeriodProcess,
    LinkBank,
    LinkModel,
    LinkStateCache,
    RadioProfile,
    Shadowing,
    SpatialField,
)
from repro.sim.rng import RngRegistry
from repro.testbeds.vanlan import VanLanTestbed


def _rng(name="p"):
    return RngRegistry(7).fresh(name)


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
        samples = [shadowing.value_db(float(t)) for t in range(5000)]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert abs(mean) < 1.0
        assert 0.5 * 36 < var < 1.5 * 36

    def test_temporal_correlation_decays(self):
        shadowing = Shadowing(sigma_db=6.0, tau_s=10.0, rng=_rng("sc"))
        a = shadowing.value_db(100.0)
        near = shadowing.value_db(100.5)
        assert abs(a - near) < 6.0  # strongly correlated nearby

    def test_interpolation_continuous(self):
        shadowing = Shadowing(sigma_db=6.0, tau_s=5.0, rng=_rng("si"))
        v1 = shadowing.value_db(3.49)
        v2 = shadowing.value_db(3.51)
        assert abs(v1 - v2) < 1.0

    def test_negative_time_rejected(self):
        shadowing = Shadowing(6.0, 5.0, _rng())
        with pytest.raises(ValueError):
            shadowing.value_db(-1.0)


class TestSpatialField:
    def test_deterministic_for_same_stream(self):
        a = SpatialField(4.0, 50.0, _rng("f"))
        b = SpatialField(4.0, 50.0, _rng("f"))
        assert a.value_db(10, 20) == b.value_db(10, 20)

    def test_spatial_correlation(self):
        field = SpatialField(4.0, 80.0, _rng("fc"))
        near = abs(field.value_db(100, 100) - field.value_db(103, 100))
        assert near < 2.0  # 3 m apart, well inside correlation length

    def test_variance_scale(self):
        field = SpatialField(4.0, 30.0, _rng("fv"), n_terms=96)
        values = [field.value_db(x * 17.3, x * 9.1) for x in range(2000)]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert 0.4 * 16 < var < 1.8 * 16


class TestGrayPeriods:
    def test_no_events_at_zero_rate(self):
        gray = GrayPeriodProcess(0.0, 2.0, _rng())
        assert not any(gray.in_gray(t * 10.0) for t in range(100))

    def test_fraction_of_time_matches_rate(self):
        gray = GrayPeriodProcess(1.0 / 20.0, 2.0, _rng("g"))
        in_gray = sum(gray.in_gray(t * 0.5) for t in range(20000))
        fraction = in_gray / 20000
        # Expected duty cycle ~ rate * duration = 0.1.
        assert 0.05 < fraction < 0.2

    def test_periods_are_contiguous(self):
        gray = GrayPeriodProcess(1.0 / 10.0, 5.0, _rng("gc"))
        flags = [gray.in_gray(t * 0.1) for t in range(5000)]
        # Count transitions; with mean duration 5 s there should be far
        # fewer transitions than gray samples.
        transitions = sum(
            1 for a, b in zip(flags, flags[1:]) if a != b
        )
        assert transitions < sum(flags) / 5


class TestLinkModel:
    def _link(self, distance, **kwargs):
        profile = RadioProfile()
        return LinkModel(
            profile,
            StationaryPosition(0, 0),
            StationaryPosition(distance, 0),
            **kwargs,
        )

    def test_distance(self):
        link = self._link(120.0)
        assert link.distance(0.0) == pytest.approx(120.0)

    def test_reception_prob_decreases_with_distance(self):
        near = self._link(50.0).reception_prob(0.0)
        far = self._link(300.0).reception_prob(0.0)
        assert near > far

    def test_gray_period_collapses_reception(self):
        class AlwaysGray:
            def in_gray(self, t):
                return True

        link = self._link(30.0, gray=AlwaysGray())
        assert link.reception_prob(0.0) <= \
            link.profile.gray_residual_reception

    def test_loss_prob_complements_reception(self):
        link = self._link(100.0)
        assert link.loss_prob(0.0) == pytest.approx(
            1.0 - link.reception_prob(0.0)
        )

    def test_moving_endpoint_changes_distance(self):
        profile = RadioProfile()
        link = LinkModel(
            profile,
            StationaryPosition(0, 0),
            lambda t: (t * 10.0, 0.0),
        )
        assert link.distance(1.0) == pytest.approx(10.0)
        assert link.distance(10.0) == pytest.approx(100.0)
        assert math.isclose(
            link.rssi(1.0), profile.mean_rssi(10.0), abs_tol=1e-9
        )


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
        duration = motion.route.duration
        _, _, filled = _centre_bank(seed=7, prefill_s=duration)
        assert filled.prefill_wall_s > 0.0
        assert filled.prefilled_until == duration
        n_links = len(lazy.links)
        n_buckets = int(duration / lazy.quantum)
        for key in range(n_buckets):
            for i in range(n_links):
                assert filled.prob_at(i, key) == lazy.prob_at(i, key)
            assert filled.rssi_at(0, key) == lazy.rssi_at(0, key)
        for link_f, link_l in zip(filled.links, lazy.links):
            assert link_f.shadowing.rng.bit_generator.state == \
                link_l.shadowing.rng.bit_generator.state
            assert link_f.gray.rng.bit_generator.state == \
                link_l.gray.rng.bit_generator.state
            assert len(link_f.shadowing._values) == \
                len(link_l.shadowing._values)

    def test_bucket_value_independent_of_query_order(self):
        """Skipping ahead and returning reads the same bucket values."""
        _, _, bank_a = _centre_bank(seed=3)
        _, _, bank_b = _centre_bank(seed=3)
        keys_a = [5, 6, 7, 2000, 2001]
        keys_b = [2000, 5, 2001, 6, 7]  # different order, same buckets
        reads_a = {k: bank_a.prob_at(0, k) for k in keys_a}
        reads_b = {k: bank_b.prob_at(0, k) for k in keys_b}
        assert reads_a == reads_b

    def test_matches_scalar_model_at_bucket_centres(self):
        """Property: centre-bank values == the scalar LinkModel at the
        bucket-centre instants, to float tolerance (vectorized vs
        scalar transcendentals), over identical RNG streams."""
        testbed_a = VanLanTestbed(seed=11)
        testbed_b = VanLanTestbed(seed=11)
        motion_a = testbed_a.vehicle_motion()
        motion_b = testbed_b.vehicle_motion()
        bank = testbed_a.build_link_bank(0, motion_a)
        scalar = [testbed_b.link_model(0, bs, motion_b)
                  for bs in testbed_b.deployment.bs_ids]
        quantum = bank.quantum
        for step in range(800):
            key = 3 * step  # monotone, with gaps
            tc = (key + 0.5) * quantum
            for i, model in enumerate(scalar):
                banked = bank.prob_at(i, key)
                assert banked == pytest.approx(model.reception_prob(tc),
                                               abs=1e-9)

    def test_adopting_a_mismatched_bank_is_rejected(self):
        """A bank built for another (seed, trip, BS set) cannot be
        silently zipped onto the wrong steering streams."""
        testbed = VanLanTestbed(seed=2)
        motion = testbed.vehicle_motion()
        bank = testbed.build_link_bank(0, motion)
        with pytest.raises(ValueError):
            testbed.build_link_table(1, motion, bank=bank)  # wrong trip
        with pytest.raises(ValueError):
            testbed.build_link_table(
                0, motion, bank=bank,
                bs_ids=testbed.deployment.bs_ids[:5],
            )
        with pytest.raises(ValueError):
            VanLanTestbed(seed=3).build_link_table(0, motion, bank=bank)
        # The matching table still adopts it.
        table = testbed.build_link_table(0, motion, bank=bank)
        assert table.link_bank is bank

    def test_bank_requires_shared_profile(self):
        testbed = VanLanTestbed(seed=1)
        motion = testbed.vehicle_motion()
        links = [testbed.link_model(0, bs, motion)
                 for bs in testbed.deployment.bs_ids[:2]]
        links[1].profile = type(links[1].profile)()  # a different object
        with pytest.raises(ValueError):
            LinkBank(links)

    @pytest.mark.parametrize("quantum_s", [0.0, -0.02])
    def test_non_positive_quantum_rejected(self, quantum_s):
        testbed = VanLanTestbed(seed=2)
        motion = testbed.vehicle_motion()
        links = [testbed.link_model(0, bs, motion)
                 for bs in testbed.deployment.bs_ids]
        with pytest.raises(ValueError):
            LinkBank(links, quantum_s=quantum_s)


class TestLinkStateCacheDeterminism:
    def test_quantum_zero_values_identical(self):
        a = VanLanTestbed(seed=11)
        b = VanLanTestbed(seed=11)
        link = a.link_model(0, 1, a.vehicle_motion())
        cached = LinkStateCache(b.link_model(0, 1, b.vehicle_motion()),
                                quantum_s=0.0)
        for k in range(400):
            t = k * 0.037
            assert cached.reception_prob(t) == link.reception_prob(t)
            assert cached.rssi(t) == link.rssi(t)

    def test_cached_prob_within_quantum_bound(self):
        """Cached values must lie in the uncached range of their bucket."""
        quantum = 0.02
        a = VanLanTestbed(seed=7)
        b = VanLanTestbed(seed=7)
        raw = a.link_model(0, 4, a.vehicle_motion())
        cached = LinkStateCache(b.link_model(0, 4, b.vehicle_motion()),
                                quantum_s=quantum)
        steps_per_bucket = 8
        dt = quantum / steps_per_bucket
        n_buckets = 600
        for bucket in range(n_buckets):
            t0 = bucket * quantum
            raw_values = [raw.reception_prob(t0 + i * dt)
                          for i in range(steps_per_bucket)]
            cached_values = {cached.reception_prob(t0 + i * dt)
                             for i in range(steps_per_bucket)}
            # One evaluation per bucket, taken from inside the bucket.
            assert len(cached_values) == 1
            value = cached_values.pop()
            lo, hi = min(raw_values), max(raw_values)
            assert lo - 1e-12 <= value <= hi + 1e-12


class TestGrayPeriodFastPath:
    def test_bisect_matches_dense_scan(self):
        rngs = RngRegistry(5)
        coarse = GrayPeriodProcess(1.0 / 15.0, 3.0, rngs.fresh("g"))
        dense = GrayPeriodProcess(1.0 / 15.0, 3.0, rngs.fresh("g"))
        dense_flags = {}
        for k in range(40000):
            t = k * 0.05
            dense_flags[t] = dense.in_gray(t)
        for k in range(0, 40000, 7):
            t = k * 0.05
            assert coarse.in_gray(t) == dense_flags[t]

    def test_pruning_bounds_interval_storage(self):
        gray = GrayPeriodProcess(2.0, 0.5, RngRegistry(9).fresh("p"),
                                 horizon_hint_s=100.0)
        for k in range(200000):
            gray.in_gray(k * 0.05)
        # ~20k expected onsets over 10 ks; pruning must keep only the
        # recent tail rather than the whole history.
        assert len(gray._starts) < 2000
