"""Integration tests for the TCP and VoIP application models."""

import pytest

from repro.apps.tcp import TcpWorkload
from repro.apps.voip import VoipStream
from repro.apps.workload import CbrWorkload, FlowRouter
from repro.core.protocol import ViFiConfig, ViFiSimulation
from repro.net.channel import BernoulliLoss, TraceDrivenLoss
from repro.net.medium import LinkTable

VEHICLE = 0


def clean_sim(bs_ids=(1, 2), vehicle_loss=0.0, seed=3, config=None):
    table = LinkTable()
    for bs in bs_ids:
        table.set_link(VEHICLE, bs, BernoulliLoss(vehicle_loss))
        table.set_link(bs, VEHICLE, BernoulliLoss(vehicle_loss))
    for a in bs_ids:
        for b in bs_ids:
            if a != b:
                table.set_link(a, b, BernoulliLoss(0.0))
    sim = ViFiSimulation(list(bs_ids), table,
                         config=config or ViFiConfig(), seed=seed)
    sim.start()
    return sim


class TestTcpCleanLink:
    def test_download_completes_quickly(self):
        sim = clean_sim()
        router = FlowRouter(sim)
        workload = TcpWorkload(sim, router, directions=("download",))
        workload.start(5.0)
        workload.stop(30.0)
        sim.run(until=32.0)
        assert len(workload.completed) > 10
        assert not workload.aborted
        # 10 KB at 1 Mbps with handshake: a few hundred milliseconds.
        assert workload.median_transfer_time() < 1.0

    def test_upload_direction_works(self):
        sim = clean_sim()
        router = FlowRouter(sim)
        workload = TcpWorkload(sim, router, directions=("upload",))
        workload.start(5.0)
        workload.stop(30.0)
        sim.run(until=32.0)
        assert len(workload.completed) > 10

    def test_alternating_directions(self):
        sim = clean_sim()
        router = FlowRouter(sim)
        workload = TcpWorkload(sim, router)
        workload.start(5.0)
        workload.stop(30.0)
        sim.run(until=32.0)
        directions = {r.direction for r in workload.completed}
        assert directions == {"download", "upload"}

    def test_transfer_times_positive(self):
        sim = clean_sim()
        router = FlowRouter(sim)
        workload = TcpWorkload(sim, router)
        workload.start(5.0)
        workload.stop(20.0)
        sim.run(until=22.0)
        assert all(r.duration > 0 for r in workload.completed)


class TestTcpLossyLink:
    def test_lossy_link_slows_but_completes(self):
        sim = clean_sim(vehicle_loss=0.3, seed=7)
        router = FlowRouter(sim)
        workload = TcpWorkload(sim, router, directions=("download",))
        workload.start(5.0)
        workload.stop(60.0)
        sim.run(until=62.0)
        assert len(workload.completed) >= 5

    def test_dead_link_aborts_after_stall_timeout(self):
        table = LinkTable()
        # Good for 10 s, then dead for good: the active transfer must
        # abort within the 10 s stall timeout.
        profile = [0.0] * 10 + [1.0] * 60
        table.set_link(VEHICLE, 1, TraceDrivenLoss(profile))
        table.set_link(1, VEHICLE, TraceDrivenLoss(profile))
        sim = ViFiSimulation([1], table, config=ViFiConfig(), seed=9)
        sim.start()
        router = FlowRouter(sim)
        workload = TcpWorkload(sim, router, directions=("download",))
        workload.start(5.0)
        workload.stop(50.0)
        sim.run(until=55.0)
        assert workload.aborted
        # Sessions end at aborts; per-session counts reflect that.
        assert workload.transfers_per_session() < len(workload.completed)

    def test_session_accounting(self):
        workload = TcpWorkload.__new__(TcpWorkload)
        workload.results = []
        from repro.apps.tcp import TransferResult

        def result(ok):
            return TransferResult("download", 0.0, 1.0, ok)

        workload.results = [result(True), result(True), result(False),
                            result(True), result(False), result(True)]
        # Sessions: [2, 1, 1] -> mean 4/3.
        assert workload.transfers_per_session() == pytest.approx(4 / 3)


class TestVoip:
    def test_clean_stream_high_mos(self):
        sim = clean_sim()
        router = FlowRouter(sim)
        stream = VoipStream(sim, router)
        stream.start(5.0)
        stream.stop(35.0)
        sim.run(until=36.0)
        quality = stream.window_quality()
        assert quality
        assert stream.mean_mos() > 3.5
        sessions = stream.session_lengths()
        assert len(sessions) == 1  # one uninterrupted session

    def test_dead_stream_no_sessions(self):
        sim = clean_sim(vehicle_loss=1.0)
        router = FlowRouter(sim)
        stream = VoipStream(sim, router)
        stream.start(5.0)
        stream.stop(25.0)
        sim.run(until=26.0)
        assert stream.session_lengths() == []
        assert stream.mean_mos() == pytest.approx(1.0)

    def test_loss_degrades_mos(self):
        clean = clean_sim(seed=5)
        lossy = clean_sim(vehicle_loss=0.45, seed=5,
                          config=ViFiConfig(max_retx=0,
                                            relay_enabled=False))
        scores = []
        for sim in (clean, lossy):
            router = FlowRouter(sim)
            stream = VoipStream(sim, router)
            stream.start(5.0)
            stream.stop(25.0)
            sim.run(until=26.0)
            scores.append(stream.mean_mos())
        assert scores[0] > scores[1]

    def test_late_packets_count_as_lost(self):
        stream = VoipStream.__new__(VoipStream)
        stream.interval = 0.02
        stream._started_at = 0.0
        stream._seq = 150  # one 3 s window per direction
        stream.sent_times = {i: i * 0.02 for i in range(150)}
        # All packets delivered but 80 ms late: beyond the 52 ms budget.
        stream.up_deliveries = {i: i * 0.02 + 0.08 for i in range(150)}
        stream.down_deliveries = dict(stream.up_deliveries)
        (mos, loss, delay), = stream.window_quality()
        assert loss == pytest.approx(1.0)
        assert mos < 2.0


class TestCbrWorkload:
    def test_counts_and_ratio(self):
        sim = clean_sim()
        router = FlowRouter(sim)
        cbr = CbrWorkload(sim, router)
        cbr.start(5.0)
        cbr.stop(15.0)
        sim.run(until=17.0)
        assert cbr.packets_sent == pytest.approx(100, abs=2)
        assert cbr.delivery_rate() > 0.95
        ratios = cbr.window_reception_ratio(1.0)
        assert ratios.mean() > 0.9

    def test_deadline_filters_late_deliveries(self):
        sim = clean_sim(vehicle_loss=0.5, seed=11)
        router = FlowRouter(sim)
        cbr = CbrWorkload(sim, router)
        cbr.start(5.0)
        cbr.stop(15.0)
        sim.run(until=17.0)
        strict = cbr.window_reception_ratio(1.0, deadline_s=0.1)
        lax = cbr.window_reception_ratio(1.0, deadline_s=None)
        assert strict.sum() <= lax.sum()

    def test_window_ratio_matches_per_probe_count(self):
        """The per-window ratios equal a direct count of the probes sent
        in each window and delivered (within the deadline, if set)."""
        sim = clean_sim(vehicle_loss=0.5, seed=11)
        cbr = CbrWorkload(sim, FlowRouter(sim))
        cbr.start(5.0)
        cbr.stop(15.0)
        sim.run(until=17.0)
        for deadline_s in (None, 0.1):
            expected = []
            for w in range(cbr.packets_sent // 10):
                delivered = 0
                for seq in range(10 * w, 10 * w + 10):
                    for table in (cbr.up_deliveries, cbr.down_deliveries):
                        arrival = table.get(seq)
                        if arrival is None or deadline_s is not None and \
                                arrival - cbr.sent_times[seq] > deadline_s:
                            continue
                        delivered += 1
                expected.append(delivered / 20.0)
            assert list(cbr.window_reception_ratio(
                1.0, deadline_s=deadline_s)) == expected

    def test_sub_probe_window_rejected(self):
        """A window shorter than the probe spacing holds no probe."""
        sim = clean_sim()
        cbr = CbrWorkload(sim, FlowRouter(sim))
        cbr.start(5.0)
        cbr.stop(7.0)
        sim.run(until=8.0)
        with pytest.raises(ValueError):
            cbr.window_reception_ratio(0.04)


class TestFlowRouter:
    def test_dispatch_by_flow(self):
        sim = clean_sim()
        router = FlowRouter(sim)
        got = {"a": [], "b": []}
        router.register(1, FlowRouter.VEHICLE,
                        lambda p, t: got["a"].append(p.seq))
        router.register(2, FlowRouter.VEHICLE,
                        lambda p, t: got["b"].append(p.seq))
        sim.run(until=5.0)
        sim.send_downstream("x", 100, flow_id=1, seq=7)
        sim.send_downstream("y", 100, flow_id=2, seq=9)
        sim.send_downstream("z", 100, flow_id=3, seq=11)  # unrouted
        sim.run(until=8.0)
        assert got == {"a": [7], "b": [9]}

    def test_duplicate_registration_rejected(self):
        sim = clean_sim()
        router = FlowRouter(sim)
        router.register(1, FlowRouter.VEHICLE, lambda p, t: None)
        with pytest.raises(ValueError):
            router.register(1, FlowRouter.VEHICLE, lambda p, t: None)

    def test_unregister(self):
        sim = clean_sim()
        router = FlowRouter(sim)
        seen = []
        router.register(1, FlowRouter.VEHICLE,
                        lambda p, t: seen.append(p.seq))
        router.unregister(1, FlowRouter.VEHICLE)
        sim.run(until=5.0)
        sim.send_downstream("x", 100, flow_id=1, seq=1)
        sim.run(until=7.0)
        assert seen == []
