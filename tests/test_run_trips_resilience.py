"""The sweep runner: determinism, resilience and shared banks.

Pool and serial sweeps merge identically in task order; crashes,
hangs, retries, interrupts, resume and spawn are survived; prefilled
propagation banks shared across tasks reproduce per-task banks bit for
bit.  Workers live at module level (pool pickling), and
first-attempt-only failures are coordinated across processes through
marker files in a directory handed to each worker inside its task
tuple.
"""

import multiprocessing
import os
import time

import pytest

from repro.experiments.common import (
    SweepResult,
    build_shared_banks,
    install_shared_banks,
    run_protocol_cbr,
    run_trips,
    shared_bank,
    shared_bank_spec,
    vanlan_cbr_trip,
    vanlan_protocol,
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


def _crash_once(task):
    """Kills its worker process on the first attempt at value 3."""
    value, markdir = task
    if value == 3:
        marker = _marker(markdir, "crashed")
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(23)
    return value * value


def _hang_once(task):
    """Hangs (far beyond any test timeout) on the first attempt."""
    value, markdir = task
    if value == 1:
        marker = _marker(markdir, "hung")
        if not os.path.exists(marker):
            open(marker, "w").close()
            time.sleep(600.0)
    return value * value


def _always_fail(task):
    raise ValueError("permanent")


def _interrupt_on(task):
    value, trigger = task
    if value == trigger:
        raise KeyboardInterrupt
    return value * value


def _interrupt_once(task):
    """Interrupts the sweep on the first attempt at value 3."""
    value, markdir = task
    if value == 3:
        marker = _marker(markdir, "interrupted")
        if not os.path.exists(marker):
            open(marker, "w").close()
            raise KeyboardInterrupt
    return value * value


def _slow_echo(task):
    time.sleep(0.7)
    return task


def _bank_probe(task):
    """Reports whether the shared-bank registry served this task."""
    testbed_seed, trip = task
    return shared_bank(testbed_seed, trip) is not None


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


class TestRetry:
    def test_exception_retried_to_success(self, tmp_path):
        tasks = [(v, str(tmp_path)) for v in (1, 2, 3)]
        result = run_trips(_flaky_raise, tasks, workers=2, retries=1,
                           retry_backoff_s=0.05)
        assert list(result) == [1, 4, 9]
        assert result.retries == 1 and not result.partial

    def test_exception_retried_serial_path(self, tmp_path):
        tasks = [(v, str(tmp_path)) for v in (1, 2, 3)]
        result = run_trips(_flaky_raise, tasks, workers=1, retries=1,
                           retry_backoff_s=0.01)
        assert list(result) == [1, 4, 9]
        assert result.retries == 1 and not result.partial

    def test_retry_budget_exhausted_marks_partial(self):
        result = run_trips(_always_fail, [1, 2], workers=2, retries=1,
                           retry_backoff_s=0.01)
        assert list(result) == [None, None]
        assert result.partial
        assert {i for i, _ in result.failures} == {0, 1}

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method only")
    def test_worker_crash_recovered_by_retry(self, tmp_path):
        """A worker that dies mid-task is detected via the task
        deadline; the resubmitted task completes and the merged result
        equals the serial no-fault run."""
        tasks = [(v, str(tmp_path)) for v in (1, 2, 3, 4)]
        result = run_trips(_crash_once, tasks, workers=2, retries=2,
                           task_timeout_s=3.0, retry_backoff_s=0.05)
        assert list(result) == [1, 4, 9, 16]
        assert not result.partial and result.retries >= 1

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method only")
    def test_hung_task_recovered_by_timeout(self, tmp_path):
        """A hung worker wedges its slot; the sweep must still finish
        via resubmission, well before the hang would release."""
        tasks = [(v, str(tmp_path)) for v in (1, 2, 3)]
        t0 = time.monotonic()
        result = run_trips(_hang_once, tasks, workers=3, retries=1,
                           task_timeout_s=1.0, retry_backoff_s=0.05)
        wall = time.monotonic() - t0
        assert list(result) == [1, 4, 9]
        assert not result.partial and result.retries >= 1
        assert wall < 60.0  # nowhere near the 600 s hang

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method only")
    def test_deadline_excludes_queue_wait(self):
        """Four 0.7 s tasks on two workers finish in about 1.4 s; the
        1 s deadline times each task's run, so the two that start
        after the first pair are not timed out for waiting."""
        result = run_trips(_slow_echo, range(4), workers=2,
                           task_timeout_s=1.0, retries=0)
        assert list(result) == [0, 1, 2, 3]
        assert result.failures == () and result.retries == 0


class TestKeyboardInterrupt:
    def test_serial_interrupt_returns_partial_prefix(self):
        result = run_trips(_interrupt_on,
                           [(1, 3), (2, 3), (3, 3), (4, 3)], workers=1)
        assert isinstance(result, SweepResult)
        assert result.partial
        assert list(result) == [1, 4, None, None]

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method only")
    def test_pool_interrupt_terminates_and_returns_partial(self,
                                                           tmp_path):
        """KeyboardInterrupt in a pool worker escapes the pool's
        exception handling and kills the worker; the dispatcher treats
        the lost task like a crash and, with no retries, reports a
        partial sweep — crucially without hanging or leaking the
        pool."""
        tasks = [(v, 2) for v in (1, 2, 3)]
        result = run_trips(_interrupt_on, tasks, workers=2, retries=0,
                           task_timeout_s=1.5, retry_backoff_s=0.05)
        assert result.partial
        assert result[0] == 1 and result[2] == 9
        assert result[1] is None


class TestStoreResume:
    """A rerun against the sweep's result store resumes it: tasks that
    finished are hits, only the rest are recomputed."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rerun_recomputes_only_the_failed_task(self, tmp_path,
                                                   workers):
        store = ResultStore(tmp_path / "store")
        tasks = [(v, str(tmp_path)) for v in (1, 2, 3)]
        first = run_trips(_flaky_raise, tasks, workers=workers,
                          retries=0, store=store)
        assert list(first) == [1, None, 9] and first.partial
        second = run_trips(_flaky_raise, tasks, workers=workers,
                           retries=0, store=store)
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
    def test_spawn_with_rebuild_spec_matches_serial(self):
        """The shared-bank registry survives a spawn pool via the
        rebuild spec (regression: it used to ride fork-inherited
        globals only)."""
        spec = shared_bank_spec(0, trips=(0,), prefill=False)
        tasks = [(0, 0), (0, 0)]
        try:
            serial = run_trips(_bank_probe, tasks, workers=1,
                               initializer=install_shared_banks,
                               initargs=(spec,))
        finally:
            install_shared_banks({})  # the serial path installs in-process
        spawned = run_trips(_bank_probe, tasks, workers=2,
                            initializer=install_shared_banks,
                            initargs=(spec,), start_method="spawn")
        assert list(serial) == list(spawned) == [True, True]

    def test_unpicklable_initargs_fall_back_gracefully(self):
        """Real bank objects that cannot pickle degrade to the
        initializer's spawn_fallback (empty registry) instead of
        crashing the pool."""
        unpicklable = {(0, 0): lambda: None}
        result = run_trips(_bank_probe, [(0, 0), (0, 0)], workers=2,
                           initializer=install_shared_banks,
                           initargs=(unpicklable,),
                           start_method="spawn")
        assert list(result) == [False, False]

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError):
            run_trips(_square, [1, 2], workers=2,
                      start_method="teleport")

    def test_spawn_safe_initializer_requires_fallback(self):
        from repro.experiments.common import _spawn_safe_initializer

        def no_fallback(arg):
            pass

        with pytest.raises(TypeError):
            _spawn_safe_initializer(no_fallback, (lambda: None,))


# ----------------------------------------------------------------------
# Determinism and shared banks
# ----------------------------------------------------------------------

def _signature(duration_s=30.0, seed=0, bank=None):
    testbed = VanLanTestbed(seed=0)
    sim, _ = vanlan_protocol(testbed, trip=0, seed=seed, bank=bank)
    cbr = run_protocol_cbr(sim, duration_s)
    return sim, {
        "up": sorted(cbr.up_deliveries.items()),
        "down": sorted(cbr.down_deliveries.items()),
        "tx": sorted(sim.medium.tx_count.items()),
        "delivered": sorted(sim.medium.delivered_count.items()),
    }


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


class TestSharedBanks:
    def test_shared_banks_reproduce_fresh_banks(self):
        tasks = [{"trip": 0, "seed": s, "duration_s": 8.0}
                 for s in (0, 1)]
        fresh = run_trips(vanlan_cbr_trip, tasks, workers=1)
        banks = build_shared_banks(0, [0])
        try:
            shared = run_trips(vanlan_cbr_trip, tasks, workers=1,
                               initializer=install_shared_banks,
                               initargs=(banks,))
        finally:
            install_shared_banks({})
        assert all(record["bank_shared"] for record in shared)
        assert not any(record["bank_shared"] for record in fresh)

        def sans_flag(results):
            return [{k: v for k, v in r.items() if k != "bank_shared"}
                    for r in results]

        assert sans_flag(shared) == sans_flag(fresh)

    def test_shared_bank_run_equals_fresh_bank_run(self):
        """Cross-run sharing contract: one bank, many runs, bitwise."""
        bank = build_shared_banks(0, [0])[(0, 0)]
        for seed in (0, 5):
            _, fresh_sig = _signature(duration_s=12.0, seed=seed)
            _, shared_sig = _signature(duration_s=12.0, seed=seed,
                                       bank=bank)
            assert shared_sig == fresh_sig
