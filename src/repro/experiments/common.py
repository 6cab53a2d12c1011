"""Shared experiment plumbing.

Builders that assemble a :class:`~repro.core.protocol.ViFiSimulation`
over either testbed, the standard warmup/measurement timeline used by
every application experiment (protocols need a couple of seconds of
beacons before the first anchor exists), and the parallel multi-trip
runner: trips and seeds are embarrassingly parallel (every stochastic
process is keyed by ``(testbed seed, trip)`` through the named-stream
registry), so the figure benchmarks farm independent runs out to a
process pool and merge results deterministically.  Every VanLAN run
builds its own propagation bank; read-only state such as testbeds
ships once per worker through :func:`init_worker_state`.
"""

import functools
import logging
import multiprocessing
import os

from repro import store as repro_store
from repro.apps.workload import CbrWorkload, FlowRouter
from repro.core.protocol import ViFiConfig, ViFiSimulation
from repro.testbeds.lossmap import build_link_table_from_log
from repro.testbeds.vanlan import VEHICLE_ID, VanLanTestbed

__all__ = [
    "WARMUP_S",
    "SweepResult",
    "available_workers",
    "brr_vifi_variants",
    "dieselnet_protocol",
    "init_worker_state",
    "memoized_beacon_log",
    "require_complete",
    "run_protocol_app",
    "run_protocol_cbr",
    "run_trips",
    "vanlan_cbr_trip",
    "vanlan_protocol",
    "worker_state",
]

log = logging.getLogger("repro.experiments")

#: Seconds of beaconing before applications start (engineering).
WARMUP_S = 3.0


def brr_vifi_variants():
    """The BRR and stock-ViFi variants of Figures 10 and 11."""
    base = ViFiConfig()
    return {"BRR": base.brr_variant(), "ViFi": base}


def vanlan_protocol(testbed, trip, config=None, seed=0, prefill=True,
                    faults=None):
    """A protocol run over one VanLAN trip (deployment-style links).

    By default the whole trip's propagation buckets are prefilled at
    build time (``prefill=True``), so the run itself performs only
    array reads.  *prefill* may also be a float horizon in simulated
    seconds for runs known to stop early — the horizon never changes
    bucket values (they are pure functions of the bucket), only how
    much is precomputed.  ``prefill=False`` fills buckets lazily as
    the run reaches them.

    Returns:
        ``(simulation, trip_duration_s)``.  The simulation exposes the
        propagation bank as ``sim.link_bank``.
    """
    if not isinstance(testbed, VanLanTestbed):
        raise TypeError("expected a VanLanTestbed")
    motion = testbed.vehicle_motion()
    if not prefill:
        prefill_s = None
    elif prefill is True:
        prefill_s = motion.duration
    else:
        prefill_s = min(float(prefill), motion.duration)
    table = testbed.build_link_table(trip, motion, prefill_s=prefill_s)
    sim = ViFiSimulation(
        testbed.deployment.bs_ids, table,
        config=config or ViFiConfig(), seed=seed, vehicle_id=VEHICLE_ID,
        faults=faults,
    )
    sim.link_bank = table.link_bank
    return sim, motion.duration


def dieselnet_protocol(beacon_log, rngs, config=None, seed=0,
                       bursty=True):
    """A trace-driven protocol run from a DieselNet beacon log.

    Implements the Section 5.1 methodology: per-second beacon loss
    ratios become the packet loss rates, inter-BS links follow the
    covisibility rule.

    By default the per-second rates steer a Gilbert-Elliott chain
    (``bursty=True``): the paper's own Figure 6(a) shows losses are
    bursty well below one-second granularity, and burst masking is the
    mechanism macrodiversity exploits, so erasing sub-second structure
    (losses i.i.d. within each second — the paper's literal stated
    assumption, available as ``bursty=False``) suppresses exactly the
    effect under study.

    Returns:
        ``(simulation, log_duration_s)``.
    """
    table = build_link_table_from_log(
        beacon_log, rngs, vehicle_id=VEHICLE_ID, bursty=bursty
    )
    sim = ViFiSimulation(
        beacon_log.bs_ids, table,
        config=config or ViFiConfig(), seed=seed, vehicle_id=VEHICLE_ID,
    )
    return sim, float(beacon_log.n_secs)


def run_protocol_cbr(sim, duration_s, deadline_s=None):
    """Drive the paper's CBR probes over a protocol run to completion.

    The probes run from :data:`WARMUP_S` until a second before
    *duration_s*; the run continues to *duration_s*, plus *deadline_s*
    when set, so the last probes can land.

    Returns:
        The finished :class:`~repro.apps.workload.CbrWorkload`.
    """
    cbr = CbrWorkload(sim, FlowRouter(sim))
    cbr.start(WARMUP_S)
    cbr.stop(duration_s - 1.0)
    sim.run(until=duration_s + (0.0 if deadline_s is None else deadline_s))
    return cbr


def run_protocol_app(sim, duration_s, app):
    """Drive a session application over a protocol run to completion.

    *app* is an application class built as ``app(sim, router)``, such
    as :class:`~repro.apps.tcp.TcpWorkload` or
    :class:`~repro.apps.voip.VoipStream`.  It runs from
    :data:`WARMUP_S` until two seconds before *duration_s*, and the
    run continues to *duration_s* so the last packets can land.

    Returns:
        The finished application.
    """
    workload = app(sim, FlowRouter(sim))
    workload.start(WARMUP_S)
    workload.stop(duration_s - 2.0)
    sim.run(until=duration_s)
    return workload


# ----------------------------------------------------------------------
# Parallel multi-trip running
# ----------------------------------------------------------------------

def available_workers():
    """Worker processes this host can usefully run in parallel."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class SweepResult(list):
    """Results of a :func:`run_trips` sweep, in task order.

    A plain list of per-task results (so every existing caller treats
    it as before), annotated with the sweep's fate:

    Attributes:
        partial: ``True`` when the sweep did not produce every result
            — interrupted (``KeyboardInterrupt``) or some task raised.
            Missing slots hold ``None``.
        failures: tuple of ``(task_index, reason)`` for tasks that
            raised.
        retries: always 0, as no task is ever resubmitted; the
            benchmark reads it.
        store: result-store accounting for the sweep — a dict with
            ``hits`` / ``misses`` / ``verify_failures`` (plus
            quarantine/write bookkeeping and the degradation reason,
            if any).  All zeros when the sweep ran store-free.
    """

    partial = False
    failures = ()
    retries = 0
    store = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.store = repro_store.StoreStats().snapshot()


def _sweep_store_context(worker, initializer, initargs):
    """Canonical identity of a sweep for result-store key derivation.

    Covers the worker function and the initializer with its arguments
    (configs, seeds, testbeds).  The worker count is not part of it,
    so warm-cache hits survive any pool size.

    Raises:
        repro_store.Uncacheable: some initializer argument has no
            canonical token; the caller degrades to an uncached sweep.
    """
    parts = [("worker", repro_store.canonical_token(worker))]
    if initializer is not None:
        parts.append(("init", repro_store.canonical_token(initializer),
                      repro_store.canonical_token(tuple(initargs))))
    return parts


def _store_task(spec):
    """Worker-side wrapper: single-flight memoized task execution.

    The sweep's store is the default store while the task runs.  Runs
    in the worker process (or inline on the serial path), so the
    per-key advisory lock serializes recomputation across every
    process asking for the same missing entry — including concurrent
    sweeps in other interpreters — and each finished task is durable
    the moment it returns.  Returns ``(store-counter delta, value)``
    so the parent can account verification failures and writes that
    happened worker-side.
    """
    root, read_only, key, worker, task = spec
    store = repro_store.ResultStore(root, read_only=read_only)
    with repro_store.installed_store(store):
        value = store.get_or_compute(key, lambda: worker(task))
    return store.stats.snapshot(), value


def _storeless_task(spec):
    """Worker-side wrapper of an uncached sweep's task: no default
    store is in effect while it runs, so memoization inside the task
    (such as :func:`memoized_beacon_log`) stays off as well."""
    worker, task = spec
    with repro_store.installed_store(None):
        return worker(task)


def _merge_worker_store_stats(sweep_store, delta):
    """Fold a worker-side counter delta into the sweep's accounting.

    Hits/misses are *not* merged: the parent already counted this
    task's pre-read, and the worker's re-check is the same logical
    request.
    """
    sweep_store.verify_failures += int(delta.get("verify_failures", 0))
    sweep_store.quarantined += int(delta.get("quarantined", 0))
    sweep_store.writes += int(delta.get("writes", 0))
    sweep_store.write_skips += int(delta.get("write_skips", 0))
    if sweep_store.degraded is None and delta.get("degraded"):
        sweep_store.degraded = delta["degraded"]


def run_trips(worker, tasks, workers=None, initializer=None, initargs=(),
              store=None):
    """Run independent per-trip tasks, optionally on a process pool.

    Every stochastic component draws from streams derived from
    ``(root seed, names)`` (see :class:`~repro.sim.rng.RngRegistry`),
    so a task's result depends only on its arguments — never on which
    worker runs it or in what order.  That is the determinism
    contract: ``run_trips(w, tasks, workers=k)`` returns exactly
    ``[w(t) for t in tasks]`` for every *k*, with results merged back
    in task order.

    Args:
        worker: a picklable module-level callable taking one task
            argument and returning a picklable result.
        tasks: sequence of picklable task arguments (typically
            ``(trip, seed)``-style tuples or dicts).  Keep tasks small
            — shared heavyweight state (testbeds, training traces)
            belongs in *initializer*/*initargs*, which ship once per
            worker instead of once per task.
        workers: process count; ``None`` uses the host's available
            cores, ``0``/``1`` runs serially in-process (no pool, no
            pickling).  A pool starts its workers by fork where the
            platform has it, else by spawn; under spawn the
            initializer and *initargs* must pickle, and the pool
            raises in the parent before any task runs when they do
            not.  Every task is submitted at once.  A pool worker
            that dies mid-task (killed, or crashed in native code)
            never reports back, and the sweep waits for it.
        initializer: optional per-worker setup callable (also invoked
            once in-process for the serial path, so serial and pooled
            runs see identical state).
        initargs: arguments for *initializer*.
        store: result-store participation.  ``None`` (default) uses
            the ambient store — the one installed via
            :func:`repro.store.set_default_store` or named by the
            ``REPRO_RESULT_STORE`` environment variable — and runs
            uncached when there is none (the historical behaviour).
            ``False`` disables caching outright (pinned benchmarks);
            a path or :class:`repro.store.ResultStore` opts in
            explicitly.  With a store, each task's result is
            content-addressed by (worker, initializer state, task,
            schema/code version) and written by its worker as soon
            as it finishes: warm re-runs are pure cache reads, so an
            interrupted or partly failed sweep resumes by running it
            again against the same store; corrupt entries are
            quarantined and recomputed, and concurrent processes
            missing on the same key compute it once (single-flight).
            A sweep whose identity cannot be canonically tokenized,
            or a store on failing media, logs one warning and runs
            uncached — caching never fails a sweep.  The choice holds
            inside each task too: memoization a task does itself
            (such as :func:`memoized_beacon_log`) uses the sweep's
            store while the task runs, and none when the sweep runs
            uncached.

    Returns:
        :class:`SweepResult` — a list of results, one per task, in
        task order.  A task that raises leaves ``None`` in its slot,
        is listed in ``failures`` and logs one warning with its
        traceback.  On ``KeyboardInterrupt`` the pool is terminated
        and joined (no orphaned workers) and the results collected so
        far are returned with ``partial=True`` instead of the
        exception propagating.
    """
    tasks = list(tasks)
    if workers is None:
        workers = available_workers()
    workers = min(int(workers), len(tasks)) if tasks else 0

    store_obj = repro_store.resolve_store(store)
    if store_obj is not None:
        try:
            context = _sweep_store_context(worker, initializer, initargs)
            store_keys = [
                repro_store.result_key("run-trips", context, task)
                for task in tasks
            ]
        except repro_store.Uncacheable as exc:
            log.warning("sweep identity is not cacheable (%s); running "
                        "without the result store", exc)
            store_obj = None
    sweep_store = repro_store.StoreStats()

    # Warm-cache pre-pass: every task already in the store is a pure
    # read in the parent — a fully warm sweep never spins up a pool.
    results = {}
    if store_obj is not None:
        for i in range(len(tasks)):
            status, value = store_obj._load(store_keys[i])
            if status == "hit":
                results[i] = value
                sweep_store.hits += 1
            else:
                sweep_store.misses += 1
                if status == "corrupt":
                    sweep_store.verify_failures += 1
                    sweep_store.quarantined += 1
                elif status == "error":
                    sweep_store.degraded = store_obj.stats.degraded

    pending = [i for i in range(len(tasks)) if i not in results]
    if store_obj is None:
        calls = [(i, _storeless_task, (worker, tasks[i])) for i in pending]
    else:
        calls = [(i, _store_task, (store_obj.root, store_obj.read_only,
                                   store_keys[i], worker, tasks[i]))
                 for i in pending]

    failures = []
    interrupted = False
    pool = None
    try:
        if not calls:
            outcomes = ()
        elif workers <= 1:
            if initializer is not None:
                initializer(*initargs)
            outcomes = ((i, functools.partial(func, spec))
                        for i, func, spec in calls)
        else:
            # fork shares the already-imported modules with the
            # children; spawn (the only option on some platforms)
            # re-imports them.
            method = ("fork" if "fork" in multiprocessing
                      .get_all_start_methods() else "spawn")
            pool = multiprocessing.get_context(method).Pool(
                min(workers, len(calls)), initializer, tuple(initargs))
            outcomes = [(i, pool.apply_async(func, (spec,)).get)
                        for i, func, spec in calls]
        for i, outcome in outcomes:
            try:
                value = outcome()
            except Exception as exc:  # repro-lint: allow[SILENT-EXCEPT] task isolation: a raising task is logged with its traceback and listed in failures, not a dead sweep
                log.warning("sweep task %d failed: %r", i, exc,
                            exc_info=exc)
                failures.append((i, f"raised {exc!r}"))
                continue
            if store_obj is not None:
                delta, value = value
                _merge_worker_store_stats(sweep_store, delta)
            results[i] = value
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if pool is not None:
            # terminate (not close): after an interrupt, tasks may
            # still be running; every result wanted is already in hand.
            pool.terminate()
            pool.join()

    out = SweepResult(results.get(i) for i in range(len(tasks)))
    out.partial = interrupted or len(results) < len(tasks)
    out.failures = tuple(failures)
    out.store = sweep_store.snapshot()
    return out


def require_complete(sweep, tasks):
    """*sweep*, once it holds a result for every one of *tasks*.

    An experiment that reads every cell of a :func:`run_trips` sweep
    calls this first, so a lost task stops it with the task's cause
    rather than with a ``None`` cell deep in its tallies.

    Raises:
        RuntimeError: naming the first failed task (its index, its task
            argument and its ``failures`` reason), or for an
            interrupted sweep the first slot without a result.
    """
    if sweep.failures:
        i, reason = sweep.failures[0]
        raise RuntimeError(f"sweep task {i} {tasks[i]!r} {reason}")
    if sweep.partial and None in sweep:
        i = sweep.index(None)
        raise RuntimeError(f"sweep interrupted before task {i} "
                           f"{tasks[i]!r} returned")
    return sweep


#: Heavyweight per-worker state (testbeds, variant maps) shipped once
#: per process through :func:`run_trips`'s *initializer* instead of
#: once per task.  One shared slot serves every experiment module:
#: pools are created per sweep (worker processes never interleave
#: sweeps) and the serial path reads the state within the same call.
_worker_state = None


def init_worker_state(*state):
    """``run_trips`` initializer: stash *state* for the worker."""
    global _worker_state
    _worker_state = state


def worker_state():
    """The state tuple the current sweep's initializer shipped."""
    return _worker_state


def memoized_beacon_log(testbed, day):
    """A DieselNet beacon log, memoized through the ambient result store.

    Trace generation is a pure function of (testbed identity, day), so
    with a store every worker and every re-run after the first loads
    the log instead of regenerating it — verified on read, quarantined
    and regenerated when corrupt.  Inside a :func:`run_trips` task the
    ambient store is the sweep's.  Without a store this is exactly
    ``testbed.generate_beacon_log``.
    """
    store_obj = repro_store.default_store()
    if store_obj is None:
        return testbed.generate_beacon_log(day)
    try:
        key = repro_store.result_key(
            "dieselnet-beacon-log", testbed.cache_token(), int(day),
        )
    except (repro_store.Uncacheable, AttributeError) as exc:
        log.warning("beacon log for %r is not cacheable (%s); "
                    "generating fresh", testbed, exc)
        return testbed.generate_beacon_log(day)
    return store_obj.get_or_compute(
        key, lambda: testbed.generate_beacon_log(day)
    )


def vanlan_cbr_trip(task):
    """Worker: one VanLAN CBR protocol run, summarized picklably.

    Args:
        task: mapping with keys ``trip`` and optionally
            ``testbed_seed`` (default 0), ``seed`` (default: trip)
            and ``duration_s`` (default 60).

    Returns:
        dict with the delivery sequences, event count, and per-kind
        transmission counters of the run — enough to check that pooled
        and serial sweeps agree.
    """
    trip = int(task["trip"])
    seed = int(task.get("seed", trip))
    duration = float(task.get("duration_s", 60.0))
    testbed_seed = int(task.get("testbed_seed", 0))
    testbed = VanLanTestbed(seed=testbed_seed)
    # Prefill only what the task will simulate (the horizon never
    # changes bucket values, only build cost).
    sim, _ = vanlan_protocol(testbed, trip=trip, seed=seed,
                             prefill=duration + 1.0)
    cbr = run_protocol_cbr(sim, duration)
    return {
        "trip": trip,
        "seed": seed,
        "events": sim.sim.events_processed,
        "up_deliveries": sorted(cbr.up_deliveries.items()),
        "down_deliveries": sorted(cbr.down_deliveries.items()),
        "tx_count": sorted(sim.medium.tx_count.items()),
    }
