"""Property-based tests (hypothesis) for core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import empirical_cdf
from repro.apps.mos import mos_from_r, mos_score, r_factor, voip_sessions
from repro.core.relaying import RelayContext, make_strategy
from repro.core.retransmit import AdaptiveRetxTimer
from repro.handoff.sessions import (
    adequacy_runs,
    session_lengths,
    time_weighted_median_session,
)
from repro.net.channel import BernoulliLoss
from repro.net.medium import LinkTable, WirelessMedium
from repro.net.packet import DataPacket, Direction
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

probabilities = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def relay_scenes(draw):
    """A random relaying scene: K auxiliaries with random link qualities."""
    k = draw(st.integers(min_value=1, max_value=8))
    table = {}
    p_src_dst = draw(probabilities)
    table[(100, 200)] = p_src_dst
    table[(200, 100)] = p_src_dst
    for aux in range(1, k + 1):
        table[(100, aux)] = draw(probabilities)
        table[(aux, 200)] = draw(probabilities)
        table[(200, aux)] = draw(probabilities)
    self_id = draw(st.integers(min_value=1, max_value=k))

    def p(a, b):
        if a == b:
            return 1.0
        return table.get((a, b), 0.0)

    return RelayContext(self_id=self_id, aux_ids=tuple(range(1, k + 1)),
                        src=100, dst=200, p=p)


class TestRelayStrategyProperties:
    @given(relay_scenes(),
           st.sampled_from(["vifi", "not-g1", "not-g2", "not-g3"]))
    @settings(max_examples=300)
    def test_probability_is_valid(self, ctx, name):
        r = make_strategy(name).relay_probability(ctx)
        assert 0.0 <= r <= 1.0
        assert math.isfinite(r)

    @given(relay_scenes())
    @settings(max_examples=200)
    def test_vifi_expected_relays_bounded_by_one(self, ctx):
        """Eq. 1: the expected number of relays never exceeds one
        (clipping at probability 1 can only reduce it), except the
        degenerate no-information fallback."""
        from repro.core.relaying import contention_probability
        strategy = make_strategy("vifi")
        denominator = sum(
            contention_probability(ctx.p, ctx.src, ctx.dst, aux)
            * ctx.p(aux, ctx.dst)
            for aux in ctx.aux_ids
        )
        if denominator <= 0:
            return  # fallback regime, covered elsewhere
        expected = sum(
            contention_probability(ctx.p, ctx.src, ctx.dst, aux)
            * make_strategy("vifi").relay_probability(
                RelayContext(self_id=aux, aux_ids=ctx.aux_ids,
                             src=ctx.src, dst=ctx.dst, p=ctx.p))
            for aux in ctx.aux_ids
        )
        assert expected <= 1.0 + 1e-9


class TestMosProperties:
    @given(st.floats(min_value=0.0, max_value=500.0), probabilities)
    @settings(max_examples=300)
    def test_mos_in_range(self, delay, loss):
        assert 1.0 <= mos_score(delay, loss) <= 4.5

    @given(st.floats(min_value=0.0, max_value=400.0), probabilities,
           probabilities)
    @settings(max_examples=200)
    def test_mos_monotone_in_loss(self, delay, l1, l2):
        lo, hi = sorted((l1, l2))
        assert mos_score(delay, lo) >= mos_score(delay, hi) - 1e-9

    @given(st.floats(min_value=0.0, max_value=400.0),
           st.floats(min_value=0.0, max_value=400.0), probabilities)
    @settings(max_examples=200)
    def test_mos_monotone_in_delay(self, d1, d2, loss):
        lo, hi = sorted((d1, d2))
        assert mos_score(lo, loss) >= mos_score(hi, loss) - 1e-9

    @given(st.floats(min_value=-50, max_value=150))
    def test_mos_from_r_bounds(self, r):
        assert 1.0 <= mos_from_r(r) <= 4.5


class TestSessionProperties:
    @given(st.lists(st.booleans(), max_size=300))
    def test_runs_partition_true_flags(self, flags):
        runs = adequacy_runs(flags)
        assert sum(length for _, length in runs) == sum(flags)
        for start, length in runs:
            assert all(flags[start:start + length])
            if start > 0:
                assert not flags[start - 1]
            end = start + length
            if end < len(flags):
                assert not flags[end]

    @given(st.lists(st.booleans(), max_size=300),
           st.floats(min_value=0.1, max_value=10.0))
    def test_session_time_conserved(self, flags, window):
        lengths = session_lengths(flags, window_s=window)
        assert math.isclose(
            math.fsum(lengths), window * sum(flags), abs_tol=1e-9
        )

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4),
                    max_size=100))
    def test_median_within_sample_range(self, lengths):
        med = time_weighted_median_session(lengths)
        if lengths:
            assert min(lengths) <= med <= max(lengths)
        else:
            assert med == 0.0

    @given(st.lists(st.floats(min_value=1.0, max_value=4.5),
                    max_size=200),
           st.floats(min_value=1.0, max_value=4.5))
    def test_voip_sessions_time_bounded(self, mos, threshold):
        sessions = voip_sessions(mos, window_s=3.0, threshold=threshold)
        assert math.fsum(sessions) <= 3.0 * len(mos) + 1e-9
        assert all(s > 0 for s in sessions)


class TestTimerProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0),
                    min_size=1, max_size=200))
    def test_timeout_within_observed_range(self, samples):
        timer = AdaptiveRetxTimer(floor_s=0.0, percentile=99.0,
                                  window=500)
        for s in samples:
            timer.add_sample(s)
        assert min(samples) <= timer.timeout() <= max(samples)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0),
                    min_size=1, max_size=100),
           st.integers(min_value=1, max_value=20))
    def test_window_bounds_memory(self, samples, window):
        timer = AdaptiveRetxTimer(floor_s=0.0, window=window)
        for s in samples:
            timer.add_sample(s)
        assert timer.sample_count == min(len(samples), window)


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    max_size=50))
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestMediumProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=100),
                              st.integers(min_value=0, max_value=3),
                              st.integers(min_value=20, max_value=1500),
                              st.booleans(),
                              st.one_of(st.none(),
                                        st.integers(min_value=1,
                                                    max_value=3))),
                    max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_frames_complete_once_and_never_overlap(self, sends):
        """Carrier sense serializes the channel: whatever the send
        times, sizes, priorities and unicast targets, each frame
        completes exactly once and no two airtimes overlap, so no
        frame can be lost to a collision."""
        sim = Simulator()
        rngs = RngRegistry(3)
        table = LinkTable()
        for a in range(4):
            for b in range(4):
                if a != b:
                    table.set_link(a, b, BernoulliLoss(
                        0.0, rngs.stream("l", a, b)))
        medium = WirelessMedium(sim, table, rngs.stream("m"))
        completed = []
        airtimes = []

        class _Node:
            def __init__(self, node_id):
                self.node_id = node_id

            def on_receive(self, frame, transmitter_id):
                pass

            def on_transmit_complete(self, frame):
                end = sim.now
                completed.append(frame.pkt_id)
                airtimes.append((end - medium.airtime(frame.size_bytes),
                                 end))

        for node_id in range(4):
            medium.attach(_Node(node_id))
        # Send times on a 1 ms grid over 0.1 s: with frames of up to
        # 12 ms, many sends land while another frame is airing.
        for pkt_id, (ms, src, size, priority, offset) in enumerate(sends):
            unicast_to = None if offset is None else (src + offset) % 4
            frame = DataPacket(pkt_id=pkt_id, src=src, dst=(src + 1) % 4,
                               direction=Direction.UPSTREAM,
                               size_bytes=size)
            sim.schedule_at(ms * 1e-3, medium.send, src, frame, priority,
                            unicast_to)
        sim.run(until=10.0)
        assert sorted(completed) == list(range(len(sends)))
        airtimes.sort()
        for (_, end), (start, _) in zip(airtimes, airtimes[1:]):
            assert end <= start + 1e-9


class TestCdfProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=200))
    def test_cdf_monotone_and_normalized(self, values):
        xs, ys = empirical_cdf(values)
        assert list(xs) == sorted(xs)
        assert list(ys) == sorted(ys)
        assert ys[-1] == 1.0
