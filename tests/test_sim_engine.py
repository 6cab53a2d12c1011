"""Unit tests for the discrete-event engine, including its live-event
counter and tombstone compaction."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.schedule(4.25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5, 4.25]


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    sim.run(until=20.0)
    assert fired == ["early", "late"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, handle.cancel)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.run() == 0


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_zero_delay_fires_after_queued_same_time_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "zero")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "zero"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_into_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_step_processes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_max_events_caps_processing():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    assert sim.run(max_events=2) == 2
    assert fired == [0, 1]


def test_pending_counts_live_events():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    handle.cancel()
    assert sim.pending == 1


def test_peek_time_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek_time() == 2.0


def test_run_returns_processed_count():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    assert sim.run() == 7
    assert sim.events_processed == 7


class TestEngineFastPath:
    def test_pending_is_live_count(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
        assert sim.pending == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending == 6
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 6

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1

    def test_tombstone_compaction_shrinks_queue(self):
        sim = Simulator()
        keep = [sim.schedule(10.0 + i, lambda: None) for i in range(50)]
        doomed = [sim.schedule(1.0 + i * 1e-3, lambda: None)
                  for i in range(400)]
        assert len(sim._queue) == 450
        for handle in doomed:
            handle.cancel()
        # Tombstones exceeded half the queue: it must have compacted.
        assert len(sim._queue) < 120
        assert sim.pending == 50
        fired = sim.run()
        assert fired == 50
        assert all(not h.active for h in keep)

    def test_cancel_heavy_run_stays_correct(self):
        sim = Simulator()
        fired = []
        for i in range(500):
            handle = sim.schedule(1.0 + i * 0.01, fired.append, i)
            if i % 2:
                handle.cancel()
        sim.run()
        assert fired == [i for i in range(500) if not i % 2]

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        handle.cancel()  # must not drive the live count negative
        assert sim.pending == 0
