"""The experiments layer's sweep runner, ``common.run_trips``.

Pool and serial sweeps merge identically in task order; a raising task
leaves ``None`` in its slot and is logged; an interrupt returns a
partial sweep with no live worker; a rerun against the result store
resumes; spawned workers match forked ones.  Workers live at module
level (pool pickling), and first-attempt-only failures are coordinated
across processes through marker files in a directory handed to each
worker inside its task tuple.
"""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.experiments import tcpbench
from repro.experiments.common import (
    SweepResult,
    brr_vifi_variants,
    init_worker_state,
    require_complete,
    run_trips,
    vanlan_cbr_trip,
    worker_state,
)
from repro.store import ResultStore
from repro.testbeds.vanlan import VanLanTestbed

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _square(task):
    return task * task


def _marker(markdir, name):
    return os.path.join(markdir, name)


def _flaky_raise(task):
    """Raises on the first attempt at task value 2, then succeeds."""
    value, markdir = task
    if value == 2:
        marker = _marker(markdir, "raised")
        if not os.path.exists(marker):
            open(marker, "w").close()
            raise RuntimeError("injected first-attempt failure")
    return value * value


def _raise_at(task):
    value, bad = task
    if value == bad:
        raise RuntimeError("boom")
    return value * value


def _interrupt_on(task):
    value, trigger = task
    if value == trigger:
        raise KeyboardInterrupt
    return value * value


def _interrupt_sweep(task):
    """Sends ctrl-C to the sweep's process at value 2, then outlasts
    any test."""
    if task == 2:
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60.0)
    return task * task


def _interrupt_once(task):
    """Interrupts the sweep on the first attempt at value 3."""
    value, markdir = task
    if value == 3:
        marker = _marker(markdir, "interrupted")
        if not os.path.exists(marker):
            open(marker, "w").close()
            raise KeyboardInterrupt
    return value * value


def _tcp_cell_or_boom(task):
    """Stands in for Figure 9's task: BRR raises, ViFi gives a cell."""
    name, _ = task
    if name == "BRR":
        raise RuntimeError("boom")
    return {"durations": [1.0], "per_session": 1.0, "completed": 1,
            "aborted": 0, "elapsed": 10.0}


def _add_shipped_offset(task):
    """Adds the offset the sweep's initializer shipped to this worker."""
    (offset,) = worker_state()
    return task + offset


class TestBaseline:
    def test_matches_serial_for_any_worker_count(self):
        tasks = list(range(7))
        serial = run_trips(_square, tasks, workers=1)
        assert list(serial) == [t * t for t in tasks]
        for k in (2, 4):
            pooled = run_trips(_square, tasks, workers=k)
            assert list(pooled) == list(serial)
            assert isinstance(pooled, SweepResult)
            assert not pooled.partial and pooled.failures == ()

    def test_empty_task_list(self):
        result = run_trips(_square, [], workers=4)
        assert list(result) == [] and not result.partial


class TestFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_task_leaves_none(self, workers):
        tasks = [(v, 2) for v in (1, 2, 3)]
        result = run_trips(_raise_at, tasks, workers=workers)
        assert list(result) == [1, None, 9]
        assert result.partial
        assert result.failures == ((1, "raised RuntimeError('boom')"),)
        assert result.retries == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_is_logged(self, caplog, workers):
        """A raising task logs one warning naming its index and its
        exception, with the task's own traceback (a pooled task's
        arrives as the cause of the re-raised exception)."""
        tasks = [(v, 2) for v in (1, 2, 3)]
        with caplog.at_level("WARNING", logger="repro.experiments"):
            run_trips(_raise_at, tasks, workers=workers)
        (record,) = caplog.records
        assert record.levelname == "WARNING"
        assert "task 1" in record.getMessage()
        assert "boom" in record.getMessage()
        assert record.exc_info[0] is RuntimeError
        assert "in _raise_at" in caplog.text


class TestRequireComplete:
    def test_complete_sweep_passes_through(self):
        sweep = run_trips(_square, [1, 2], workers=1)
        assert require_complete(sweep, [1, 2]) is sweep

    def test_names_the_first_failed_task(self):
        tasks = [(v, 2) for v in (1, 2, 3)]
        with pytest.raises(RuntimeError) as info:
            require_complete(run_trips(_raise_at, tasks, workers=1), tasks)
        message = str(info.value)
        assert "task 1 (2, 2)" in message and "boom" in message

    def test_names_the_first_missing_slot_of_an_interrupted_sweep(self):
        tasks = [(v, 2) for v in (1, 2, 3)]
        sweep = run_trips(_interrupt_on, tasks, workers=1)
        with pytest.raises(RuntimeError, match=r"task 1 \(2, 2\)"):
            require_complete(sweep, tasks)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_figure_stops_with_the_lost_task_cause(self, monkeypatch,
                                                   workers):
        """A figure experiment whose sweep lost a task raises with that
        task's cause, serially and on a pool."""
        monkeypatch.setattr(tcpbench, "_tcp_vanlan_task", _tcp_cell_or_boom)
        with pytest.raises(RuntimeError, match="boom") as info:
            tcpbench.tcp_vanlan(VanLanTestbed(seed=5), (0,),
                                variants=brr_vifi_variants(),
                                workers=workers, store=False)
        assert "('BRR', 0)" in str(info.value)


class TestKeyboardInterrupt:
    def test_serial_interrupt_returns_partial_prefix(self):
        result = run_trips(_interrupt_on,
                           [(1, 3), (2, 3), (3, 3), (4, 3)], workers=1)
        assert isinstance(result, SweepResult)
        assert result.partial
        assert list(result) == [1, 4, None, None]

    @pytest.mark.skipif(not HAS_FORK, reason="POSIX signals only")
    def test_pool_interrupt_terminates_and_returns_partial(self):
        """Ctrl-C at the sweep's process while a pooled task runs: the
        pool is terminated and joined at once, not after the task's
        60 s, and the sweep returns partial."""
        t0 = time.monotonic()
        result = run_trips(_interrupt_sweep, [1, 2, 3], workers=2)
        assert time.monotonic() - t0 < 30.0
        assert result.partial
        assert result[1] is None
        assert multiprocessing.active_children() == []


class TestStoreResume:
    """A rerun against the sweep's result store resumes it: tasks that
    finished are hits, only the rest are recomputed."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rerun_recomputes_only_the_failed_task(self, tmp_path,
                                                   workers):
        store = ResultStore(tmp_path / "store")
        tasks = [(v, str(tmp_path)) for v in (1, 2, 3)]
        first = run_trips(_flaky_raise, tasks, workers=workers,
                          store=store)
        assert list(first) == [1, None, 9] and first.partial
        second = run_trips(_flaky_raise, tasks, workers=workers,
                           store=store)
        assert list(second) == [1, 4, 9] and not second.partial
        assert second.store["hits"] == 2 and second.store["misses"] == 1

    def test_interrupted_serial_sweep_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        tasks = [(v, str(tmp_path)) for v in (1, 2, 3, 4)]
        first = run_trips(_interrupt_once, tasks, workers=1, store=store)
        assert list(first) == [1, 4, None, None] and first.partial
        second = run_trips(_interrupt_once, tasks, workers=1,
                           store=store)
        assert list(second) == [1, 4, 9, 16] and not second.partial
        assert second.store["hits"] == 2 and second.store["misses"] == 2


class TestSpawnCompatibility:
    """Fork is hidden, so the pool starts its workers by spawn."""

    @pytest.fixture(autouse=True)
    def _spawn_only(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])

    def test_spawn_with_rebuild_spec_matches_serial(self):
        """Spawned workers rebuild their state from the pickled
        initargs of init_worker_state, the initializer of the TCP,
        VoIP and coordination sweeps, and return what the serial
        sweep returns."""
        tasks = [1, 2, 3]
        serial = run_trips(_add_shipped_offset, tasks, workers=1,
                           initializer=init_worker_state, initargs=(10,))
        spawned = run_trips(_add_shipped_offset, tasks, workers=2,
                            initializer=init_worker_state, initargs=(10,))
        assert list(serial) == list(spawned) == [11, 12, 13]

    def test_unpicklable_initargs_fall_back_gracefully(self):
        """Initargs that cannot pickle make a spawn sweep raise in the
        parent before any task runs."""
        with pytest.raises((pickle.PicklingError, AttributeError,
                            TypeError)):
            run_trips(_square, [1, 2], workers=2,
                      initializer=init_worker_state,
                      initargs=(lambda: None,))


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

class TestRunTrips:
    def test_serial_matches_inline(self):
        tasks = [{"trip": t, "duration_s": 8.0} for t in range(2)]
        inline = [vanlan_cbr_trip(task) for task in tasks]
        serial = run_trips(vanlan_cbr_trip, tasks, workers=1)
        assert serial == inline

    @pytest.mark.slow
    def test_pool_matches_serial(self):
        """The determinism contract: worker count never changes results."""
        tasks = [{"trip": t, "duration_s": 12.0} for t in range(3)]
        serial = run_trips(vanlan_cbr_trip, tasks, workers=1)
        pooled = run_trips(vanlan_cbr_trip, tasks, workers=2)
        assert pooled == serial
        assert [r["trip"] for r in pooled] == [0, 1, 2]
        assert all(r["events"] > 1000 for r in pooled)

    def test_worker_results_merge_in_task_order(self):
        tasks = [3, 1, 2]
        assert run_trips(_square, tasks, workers=2) == [9, 1, 4]
