"""Tests for the synthetic VanLAN / DieselNet environments.

These check structural invariants and the statistical properties the
paper's analysis depends on (Section 3.4), not exact values: losses are
bursty, losses are roughly independent across BSes, and vehicles are
usually in range of multiple BSes.
"""

import numpy as np
import pytest

from repro.testbeds.dieselnet import DieselNetTestbed, dieselnet_deployment
from repro.testbeds.vanlan import (
    VEHICLE_ID,
    VanLanTestbed,
    default_vanlan_deployment,
)


class TestDeployment:
    def test_vanlan_has_eleven_bses_in_bounds(self):
        deployment = default_vanlan_deployment()
        assert deployment.n_bs == 11
        width, height = deployment.bounds
        assert (width, height) == (828.0, 559.0)
        for x, y in deployment.bs_positions.values():
            assert 0 <= x <= width and 0 <= y <= height

    def test_dieselnet_channel_populations(self):
        assert dieselnet_deployment(1).n_bs == 10
        assert dieselnet_deployment(6).n_bs == 14
        with pytest.raises(ValueError):
            dieselnet_deployment(11)

    def test_subset(self):
        """A run over some of the BSes banks exactly their links: each
        BS's layers draw from its own streams, so the subset's rows are
        the full deployment's, bit for bit."""
        tb = VanLanTestbed(seed=0)
        motion = tb.vehicle_motion()
        times = np.arange(0.0, 60.0, 0.5)
        _, full = tb.build_link_bank(0, motion).evaluate(times)
        _, sub = tb.build_link_bank(0, motion,
                                    bs_ids=[1, 5, 9]).evaluate(times)
        rows = [tb.deployment.bs_ids.index(bs) for bs in (1, 5, 9)]
        assert sub.tobytes() == full[rows].tobytes()
        with pytest.raises(KeyError):
            tb.build_link_bank(0, motion, bs_ids=[1, 99])

    def test_distance_symmetry(self):
        deployment = default_vanlan_deployment()
        assert deployment.distance(1, 2) == deployment.distance(2, 1)
        assert deployment.distance(1, 1) == 0.0


class TestVanLanTraces:
    @pytest.fixture(scope="class")
    def trace(self):
        return VanLanTestbed(seed=101).generate_probe_trace(0)

    def test_trace_shape(self, trace):
        assert trace.n_bs == 11
        assert trace.slot_dt == pytest.approx(0.1)
        assert trace.duration > 120  # a trip takes minutes

    def test_reproducible(self):
        a = VanLanTestbed(seed=101).generate_probe_trace(0)
        b = VanLanTestbed(seed=101).generate_probe_trace(0)
        assert np.array_equal(a.up, b.up)
        assert np.array_equal(a.down, b.down)

    def test_trips_differ(self):
        tb = VanLanTestbed(seed=101)
        a = tb.generate_probe_trace(0)
        b = tb.generate_probe_trace(1)
        assert not np.array_equal(a.down, b.down)

    def test_rssi_only_when_received(self, trace):
        assert np.isnan(trace.rssi[~trace.down]).all()
        assert np.isfinite(trace.rssi[trace.down]).all()

    def test_positions_inside_route_extent(self, trace):
        assert trace.positions[:, 0].max() < 850
        assert trace.positions[:, 1].max() < 600

    def test_vehicle_usually_hears_multiple_bses(self, trace):
        """The Section 3.4.1 diversity premise."""
        tb = VanLanTestbed(seed=101)
        log = tb.beacon_log_from_trace(trace)
        counts = log.visible_counts()
        assert np.median(counts) >= 2

    def test_losses_bursty_within_link(self, trace):
        """Section 3.4.2: loss after a loss is far more likely.

        Measured inside the BS's coverage window — over a whole trip
        the base loss is dominated by out-of-range time and the ratio
        degenerates toward one.
        """
        down = trace.down
        rates = down.mean(axis=0)
        j = int(np.argmax(rates))  # best-covered BS
        seq = down[:, j]
        covered = np.convolve(seq, np.ones(50), "same") > 15
        seq = seq[covered]
        assert seq.size > 300
        loss = ~seq
        base = loss.mean()
        after = loss[1:][loss[:-1]].mean()
        assert after > 1.3 * base

    def test_losses_roughly_independent_across_bses(self, trace):
        """Section 3.4.2: conditioning on one BS's loss barely moves
        another BS's reception."""
        down = trace.down
        # Pick the BS pair with the largest joint coverage window.
        best = None
        for a in range(trace.n_bs):
            cov_a = np.convolve(down[:, a], np.ones(50), "same") > 5
            for b in range(a + 1, trace.n_bs):
                cov_b = np.convolve(down[:, b], np.ones(50), "same") > 5
                joint = int((cov_a & cov_b).sum())
                if best is None or joint > best[0]:
                    best = (joint, a, b, cov_a & cov_b)
        joint_size, a, b, window = best
        assert joint_size >= 200, "no pair shares a coverage window"
        a_recv = down[window, a]
        b_recv = down[window, b]
        p_b = b_recv[1:].mean()
        p_b_given_a_lost = b_recv[1:][~a_recv[:-1]].mean()
        # B's reception changes far less than its own conditional drop.
        p_b_given_b_lost = b_recv[1:][~b_recv[:-1]].mean()
        assert abs(p_b_given_a_lost - p_b) < 0.25
        assert p_b_given_b_lost < p_b

    def test_beacon_log_reduction(self, trace):
        tb = VanLanTestbed(seed=101)
        log = tb.beacon_log_from_trace(trace)
        assert log.expected == 10
        assert log.n_bs == trace.n_bs
        sps = trace.slots_per_second
        manual = trace.down[: log.n_secs * sps].reshape(
            log.n_secs, sps, trace.n_bs).sum(axis=1)
        assert np.array_equal(log.heard, manual)


class TestVanLanLinkTable:
    def test_live_table_covers_all_pairs(self):
        tb = VanLanTestbed(seed=3)
        motion = tb.vehicle_motion()
        table = tb.build_link_table(0, motion)
        ids = tb.deployment.bs_ids
        for bs in ids:
            assert table.get(VEHICLE_ID, bs) is not None
            assert table.get(bs, VEHICLE_ID) is not None
        assert table.get(ids[0], ids[1]) is not None

    def test_interbs_reception_decreases_with_distance(self):
        tb = VanLanTestbed(seed=3)
        near = tb.interbs_reception(1, 2)      # same building
        far = tb.interbs_reception(1, 6)       # across campus
        assert near > far


class TestDieselNet:
    @pytest.fixture(scope="class")
    def log(self):
        return DieselNetTestbed(channel=1, seed=7).generate_beacon_log(0)

    def test_log_shape(self, log):
        assert log.n_bs == 10
        assert log.expected == 10
        assert log.n_secs > 200

    def test_reproducible(self):
        a = DieselNetTestbed(channel=1, seed=7).generate_beacon_log(0)
        b = DieselNetTestbed(channel=1, seed=7).generate_beacon_log(0)
        assert np.array_equal(a.heard, b.heard)

    def test_days_differ(self):
        tb = DieselNetTestbed(channel=1, seed=7)
        a = tb.generate_beacon_log(0)
        b = tb.generate_beacon_log(1)
        assert not np.array_equal(a.heard, b.heard)

    def test_channels_differ_in_population(self):
        ch6 = DieselNetTestbed(channel=6, seed=7).generate_beacon_log(0)
        assert ch6.n_bs == 14

    def test_diversity_present(self, log):
        counts = log.visible_counts()
        assert np.median(counts) >= 2
