"""run_trips + result store: warm sweeps, self-healing, invariant keys.

Workers live at module level (pool pickling).  These are the
integration properties the store satellites pin down: a warm re-run is
a pure cache read with identical results at any worker count, a
corrupted store heals to results bitwise-equal to a cold run, sweep
identity that cannot be tokenized degrades to uncached execution, and
memoized banks and beacon logs heal the same way.
"""

import multiprocessing

import numpy as np
import pytest

from repro.experiments.common import (
    build_shared_banks,
    install_shared_banks,
    memoized_beacon_log,
    run_trips,
    vanlan_cbr_trip,
)
from repro.store import ResultStore

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _square(task):
    return task * task


def _affine(task):
    return {"value": task["x"] * task["scale"] + task["offset"]}


def _offset_init(offset, *_ignored):
    """A result-affecting initializer (NOT store-neutral)."""
    global _OFFSET
    _OFFSET = offset


_OFFSET = 0


def _offset_task(task):
    return task + _OFFSET


def _tiny_tasks(n=3, duration_s=6.0):
    return [
        {"trip": trip, "seed": trip, "duration_s": float(duration_s),
         "testbed_seed": 0}
        for trip in range(n)
    ]


class TestWarmSweeps:
    def test_cold_then_warm_identical_serial(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_trips(_square, [1, 2, 3], workers=1, store=store)
        warm = run_trips(_square, [1, 2, 3], workers=1, store=store)
        assert list(cold) == list(warm) == [1, 4, 9]
        assert cold.store["misses"] == 3 and cold.store["writes"] == 3
        assert warm.store["hits"] == 3 and warm.store["misses"] == 0
        assert warm.store["writes"] == 0

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_worker_count_never_enters_the_key(self, tmp_path):
        """A pooled sweep hits the entries a serial sweep wrote."""
        store = ResultStore(tmp_path)
        tasks = _tiny_tasks(n=2)
        cold = run_trips(vanlan_cbr_trip, tasks, workers=1, store=store)
        pooled = run_trips(vanlan_cbr_trip, tasks, workers=2,
                           store=store)
        assert list(pooled) == list(cold)
        assert pooled.store["hits"] == len(tasks)
        assert pooled.store["misses"] == 0
        # And the reverse: entries written by a pooled sweep serve a
        # serial one.
        store2 = ResultStore(tmp_path / "second")
        pooled_cold = run_trips(vanlan_cbr_trip, tasks, workers=2,
                                store=store2)
        warm_serial = run_trips(vanlan_cbr_trip, tasks, workers=1,
                                store=store2)
        assert list(warm_serial) == list(pooled_cold) == list(cold)
        assert warm_serial.store["hits"] == len(tasks)

    def test_store_free_sweep_unchanged(self, tmp_path):
        """No store (the historical default) is bitwise-identical."""
        plain = run_trips(vanlan_cbr_trip, _tiny_tasks(n=1), workers=1)
        stored = run_trips(vanlan_cbr_trip, _tiny_tasks(n=1), workers=1,
                           store=ResultStore(tmp_path))
        assert list(plain) == list(stored)
        assert plain.store["hits"] == plain.store["misses"] == 0

    def test_task_and_seed_changes_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        run_trips(_affine, [{"x": 1, "scale": 2, "offset": 0}],
                  workers=1, store=store)
        changed = run_trips(_affine, [{"x": 1, "scale": 3, "offset": 0}],
                            workers=1, store=store)
        assert changed.store["misses"] == 1
        assert changed[0] == {"value": 3}

    def test_initializer_state_enters_the_key(self, tmp_path):
        """A result-affecting initializer must change the digest."""
        store = ResultStore(tmp_path)
        plus1 = run_trips(_offset_task, [10], workers=1, store=store,
                          initializer=_offset_init, initargs=(1,))
        plus2 = run_trips(_offset_task, [10], workers=1, store=store,
                          initializer=_offset_init, initargs=(2,))
        assert list(plus1) == [11] and list(plus2) == [12]
        assert plus2.store["hits"] == 0  # different initargs, new entry

    def test_store_neutral_initializer_shares_entries(self, tmp_path):
        """Shared banks are result-neutral: same key with or without."""
        store = ResultStore(tmp_path)
        tasks = _tiny_tasks(n=2)
        bare = run_trips(vanlan_cbr_trip, tasks, workers=1, store=store)
        banks = build_shared_banks(0, range(len(tasks)))
        try:
            banked = run_trips(vanlan_cbr_trip, tasks, workers=1,
                               store=store,
                               initializer=install_shared_banks,
                               initargs=(banks,))
        finally:
            install_shared_banks({})
        assert banked.store["hits"] == len(tasks)
        assert list(banked) == list(bare)


class TestSelfHealing:
    def test_corrupt_all_entries_heals_to_cold_results(self, tmp_path):
        store = ResultStore(tmp_path)
        tasks = _tiny_tasks(n=2)
        cold = run_trips(vanlan_cbr_trip, tasks, workers=1, store=store)
        for _key, path in list(store.iter_entries()):
            data = bytearray(open(path, "rb").read())
            data[-5] ^= 0xFF
            open(path, "wb").write(bytes(data))
        healed = run_trips(vanlan_cbr_trip, tasks, workers=1,
                           store=store)
        assert list(healed) == list(cold)
        assert healed.store["verify_failures"] == len(tasks)
        assert healed.store["quarantined"] == len(tasks)
        assert healed.store["writes"] == len(tasks)
        assert store.quarantine_count() == len(tasks)
        again = run_trips(vanlan_cbr_trip, tasks, workers=1, store=store)
        assert again.store["hits"] == len(tasks)
        assert list(again) == list(cold)

    def test_unusable_store_degrades_sweep_survives(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        store = ResultStore(blocker / "store")
        sweep = run_trips(_square, [2, 3], workers=1, store=store)
        assert list(sweep) == [4, 9]
        assert sweep.store["degraded"]
        assert sweep.store["hits"] == 0

    def test_uncacheable_sweep_identity_runs_uncached(self, tmp_path,
                                                     caplog):
        class Opaque:
            pass

        store = ResultStore(tmp_path)
        with caplog.at_level("WARNING", logger="repro.experiments"):
            sweep = run_trips(_offset_task, [5], workers=1, store=store,
                              initializer=_offset_init,
                              initargs=(1, Opaque()))
        assert list(sweep) == [6]
        assert sweep.partial is False
        assert sweep.store["hits"] == sweep.store["misses"] == 0
        assert store.entry_count() == 0
        assert any("not cacheable" in r.message for r in caplog.records)


class TestMemoizedBuilders:
    def test_memoized_beacon_log_equals_fresh(self, tmp_path):
        from repro.testbeds.dieselnet import DieselNetTestbed

        store = ResultStore(tmp_path)
        testbed = DieselNetTestbed(channel=1, seed=4)
        fresh = DieselNetTestbed(channel=1, seed=4) \
            .generate_beacon_log(0)
        cold = memoized_beacon_log(testbed, 0, store=store)
        warm = memoized_beacon_log(DieselNetTestbed(channel=1, seed=4),
                                   0, store=store)
        assert np.array_equal(cold.heard, fresh.heard)
        assert np.array_equal(warm.heard, fresh.heard)
        assert warm.bs_ids == fresh.bs_ids
        assert store.stats.hits == 1 and store.stats.misses == 1
        # Identity hygiene: another day / channel / seed misses.
        memoized_beacon_log(testbed, 1, store=store)
        memoized_beacon_log(DieselNetTestbed(channel=6, seed=4), 0,
                            store=store)
        assert store.stats.misses == 3

    def test_memoized_beacon_log_without_store_is_fresh(self):
        from repro.testbeds.dieselnet import DieselNetTestbed

        testbed = DieselNetTestbed(channel=1, seed=4)
        log = memoized_beacon_log(testbed, 0, store=False)
        fresh = DieselNetTestbed(channel=1, seed=4) \
            .generate_beacon_log(0)
        assert np.array_equal(log.heard, fresh.heard)

    def test_corrupt_memoized_artifacts_regenerate(self, tmp_path):
        """Bank/trace entries share the quarantine-and-recompute path."""
        from repro.testbeds.dieselnet import DieselNetTestbed

        store = ResultStore(tmp_path)
        testbed = DieselNetTestbed(channel=1, seed=4)
        fresh = memoized_beacon_log(testbed, 0, store=store)
        build_shared_banks(0, [0], store=store)
        assert store.entry_count() == 2
        for _key, path in list(store.iter_entries()):
            data = bytearray(open(path, "rb").read())
            data[len(data) // 2] ^= 0xAA
            open(path, "wb").write(bytes(data))
        healed_log = memoized_beacon_log(
            DieselNetTestbed(channel=1, seed=4), 0, store=store)
        healed_banks = build_shared_banks(0, [0], store=store)
        assert np.array_equal(healed_log.heard, fresh.heard)
        assert store.stats.quarantined == 2
        assert store.quarantine_count() == 2
        # And the regenerated bank still drives a correct sweep.
        try:
            install_shared_banks(healed_banks)
            sweep = run_trips(vanlan_cbr_trip, _tiny_tasks(n=1),
                              workers=1)
        finally:
            install_shared_banks({})
        plain = run_trips(vanlan_cbr_trip, _tiny_tasks(n=1), workers=1)

        def sans_flag(results):
            return [{k: v for k, v in r.items() if k != "bank_shared"}
                    for r in results]

        assert sans_flag(sweep) == sans_flag(plain)

    def test_shared_banks_memoized_and_equivalent(self, tmp_path):
        store = ResultStore(tmp_path)
        cold_banks = build_shared_banks(0, [0], store=store)
        warm_banks = build_shared_banks(0, [0], store=store)
        assert store.stats.misses == 1 and store.stats.hits == 1
        # The loaded bank drives a sweep to the same results as the
        # freshly built one.
        task = _tiny_tasks(n=1)
        try:
            install_shared_banks(cold_banks)
            with_cold = run_trips(vanlan_cbr_trip, task, workers=1)
            install_shared_banks(warm_banks)
            with_warm = run_trips(vanlan_cbr_trip, task, workers=1)
        finally:
            install_shared_banks({})
        assert list(with_cold) == list(with_warm)
