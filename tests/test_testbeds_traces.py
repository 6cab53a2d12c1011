"""Unit tests for trace formats and the loss mapping."""

import numpy as np
import pytest

from repro.net.channel import BernoulliLoss, TraceDrivenLoss
from repro.sim.rng import RngRegistry
from repro.testbeds.lossmap import (
    build_link_table_from_log,
    interbs_loss_rates,
    loss_rate_series,
)
from repro.testbeds.traces import BeaconLog, ProbeTrace


def make_probe_trace(n_slots=40, n_bs=3):
    rng = np.random.default_rng(0)
    up = rng.random((n_slots, n_bs)) < 0.6
    down = rng.random((n_slots, n_bs)) < 0.5
    rssi = np.where(down, -80.0, np.nan)
    positions = np.zeros((n_slots, 2))
    return ProbeTrace(list(range(1, n_bs + 1)), 0.1, up, down, rssi,
                      positions)


class TestProbeTrace:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ProbeTrace([1], 0.1, np.zeros((5, 2), bool),
                       np.zeros((5, 2), bool), np.zeros((5, 2)),
                       np.zeros((5, 2)))

    def test_per_second_reception(self):
        up = np.zeros((20, 1), dtype=bool)
        up[:5, 0] = True
        trace = ProbeTrace([1], 0.1, up, up.copy(),
                           np.full((20, 1), np.nan), np.zeros((20, 2)))
        up_rr, down_rr = trace.per_second_reception()
        assert up_rr.shape == (2, 1)
        assert up_rr[0, 0] == pytest.approx(0.5)
        assert up_rr[1, 0] == 0.0

    def test_subset_preserves_columns(self):
        trace = make_probe_trace(n_bs=3)
        sub = trace.subset([3, 1])
        assert sub.bs_ids == [3, 1]
        assert np.array_equal(sub.up[:, 0], trace.up[:, 2])
        assert np.array_equal(sub.down[:, 1], trace.down[:, 0])

    def test_save_load_roundtrip(self, tmp_path):
        trace = make_probe_trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = ProbeTrace.load(path)
        assert loaded.bs_ids == trace.bs_ids
        assert np.array_equal(loaded.up, trace.up)
        assert np.array_equal(loaded.down, trace.down)
        assert loaded.slot_dt == trace.slot_dt

    def test_per_second_rssi_nan_when_silent(self):
        trace = make_probe_trace()
        per_sec = trace.per_second_rssi()
        # Wherever at least one beacon decoded, RSSI is finite.
        down_rr, _ = trace.per_second_reception()[1], None
        assert per_sec.shape[0] == trace.n_slots // 10


class TestBeaconLog:
    def test_ratio_and_loss(self):
        log = BeaconLog([1, 2], [[10, 0], [5, 5]], expected=10)
        assert log.reception_ratio()[0, 0] == 1.0
        assert log.loss_ratio()[0, 1] == 1.0
        assert log.loss_ratio()[1, 1] == pytest.approx(0.5)

    def test_visible_counts(self):
        log = BeaconLog([1, 2, 3], [[10, 1, 0], [0, 0, 0]], expected=10)
        assert list(log.visible_counts()) == [2, 0]
        assert list(log.visible_counts(0.5)) == [1, 0]

    def test_covisibility(self):
        log = BeaconLog([1, 2, 3],
                        [[5, 5, 0], [0, 0, 5]], expected=10)
        covis = log.covisibility()
        assert covis[0, 1] and covis[1, 0]
        assert not covis[0, 2] and not covis[1, 2]
        assert covis[2, 2]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            BeaconLog([1], [[11]], expected=10)
        with pytest.raises(ValueError):
            BeaconLog([1], [[-1]], expected=10)

    def test_save_load_roundtrip(self, tmp_path):
        log = BeaconLog([1, 2], [[10, 0], [5, 5]], expected=10)
        path = tmp_path / "log.npz"
        log.save(path)
        loaded = BeaconLog.load(path)
        assert loaded.bs_ids == log.bs_ids
        assert np.array_equal(loaded.heard, log.heard)
        assert loaded.expected == 10


class TestLossMap:
    def _log(self):
        return BeaconLog(
            [1, 2, 3],
            [[10, 5, 0], [8, 0, 0], [0, 4, 0]],
            expected=10,
        )

    def test_loss_rate_series(self):
        series = loss_rate_series(self._log(), 2)
        assert list(series) == pytest.approx([0.5, 1.0, 0.6])

    def test_interbs_rule(self):
        rng = RngRegistry(3).stream("x")
        rates = interbs_loss_rates(self._log(), rng)
        # BS 3 was never heard: unreachable from everyone.
        assert rates[(1, 3)] == 1.0
        assert rates[(2, 3)] == 1.0
        # BSes 1 and 2 are covisible in second 0: uniform loss < 1.
        assert rates[(1, 2)] < 1.0
        assert rates[(1, 2)] == rates[(2, 1)]

    def test_link_table_structure(self):
        rngs = RngRegistry(4)
        table = build_link_table_from_log(self._log(), rngs,
                                          vehicle_id=0)
        assert isinstance(table.get(0, 1), TraceDrivenLoss)
        assert isinstance(table.get(1, 0), TraceDrivenLoss)
        assert isinstance(table.get(1, 2), BernoulliLoss)
        # Symmetric rates, independent draws.
        assert table.get(0, 1) is not table.get(1, 0)
        assert table.get(0, 1).rates == table.get(1, 0).rates

    def test_bursty_mode(self):
        from repro.net.channel import SteeredGilbertElliott
        rngs = RngRegistry(4)
        table = build_link_table_from_log(self._log(), rngs,
                                          vehicle_id=0, bursty=True)
        assert isinstance(table.get(0, 1), SteeredGilbertElliott)
        # The steered process must follow the per-second series.
        assert table.get(0, 1).loss_rate(0.5) == pytest.approx(0.0)
        assert table.get(0, 1).loss_rate(1.5) == pytest.approx(0.2)
        # Its window reaches to the next trace second (or an earlier
        # chain flip), so the medium keeps one threshold across frames
        # instead of re-reading the series on every frame.
        _, until = table.get(0, 1).loss_eps_window(1.5)
        assert 1.5 < until <= 2.0
