"""A hardened local experiment service on top of the result store.

:class:`ExperimentService` is a small in-process job queue for the
figure sweeps: callers submit named experiment runs, a bounded pool of
worker threads executes them, and completed results are memoized in a
:class:`repro.store.ResultStore` so a repeated request is served from
disk without recomputation.

The service is deliberately defensive — it is the layer that keeps a
long experiment campaign alive when individual requests misbehave:

* **Bounded concurrency and backpressure.**  At most ``workers`` jobs
  run at once and at most ``queue_limit`` wait; beyond that
  :meth:`submit` raises :class:`ServiceSaturated` instead of letting
  the backlog grow without bound.
* **Per-request deadlines.**  A job whose deadline passes while it is
  still queued is expired without running.  Running jobs are handled
  cooperatively: runners that accept a ``context`` argument can poll
  :meth:`JobContext.should_stop` and bail out early; either way the
  job is marked ``expired`` when it finishes past its deadline.
* **Cancellation.**  Queued jobs cancel immediately; running jobs get
  the same cooperative stop signal.
* **Failure capture.**  A runner that raises marks only its own job
  ``failed`` (traceback preserved on the record); the worker thread
  and every other job keep going.
* **Graceful store degradation.**  If the store is unavailable,
  read-only, or corrupt the service logs once and falls through to
  computing — a broken cache never takes the service down.

Transport lives one layer up: :mod:`repro.gateway` serves this same
API over fault-tolerant HTTP (``python -m repro serve --http``), and
``python -m repro serve`` without ``--http`` exposes a line-oriented
stdin/stdout harness (one JSON job request per line, one JSON result
per line; malformed lines are rejected with a structured error line,
never a crash).
"""

import argparse
import itertools
import json
import logging
import queue
import sys
import threading
import time
import traceback

from repro import store as repro_store

__all__ = [
    "ExperimentService",
    "Job",
    "JobContext",
    "ServiceClosed",
    "ServiceSaturated",
    "parse_job_request",
    "register_runner",
    "runner_names",
    "main_serve",
]

log = logging.getLogger("repro.service")

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
EXPIRED = "expired"

_TERMINAL = frozenset({DONE, FAILED, CANCELLED, EXPIRED})


class ServiceSaturated(RuntimeError):
    """The queue is full; the caller should back off and retry."""


class ServiceClosed(RuntimeError):
    """The service is shut down and accepts no further jobs."""


class JobContext:
    """Cooperative control surface handed to context-aware runners."""

    def __init__(self, job):
        self._job = job

    def should_stop(self):
        """True once the job is cancelled or past its deadline."""
        return self._job.stop_event.is_set() or self._job.past_deadline()

    def progress(self, **fields):
        """Record a progress event on the job.

        Events are JSON-friendly dicts, sequence-numbered in order of
        arrival; anything waiting in :meth:`Job.progress_since` (the
        HTTP gateway's event stream, a polling client) wakes up.
        Cheap enough to call per sweep task.
        """
        self._job.record_progress(dict(fields))


class Job:
    """One submitted experiment request and its lifecycle record."""

    def __init__(self, job_id, name, params, deadline_s, key=None):
        self.id = job_id
        self.name = name
        self.params = dict(params or {})
        self.key = key
        self.state = QUEUED
        self.result = None
        self.error = None
        self.cached = False
        self.submitted = time.monotonic()
        self.started = None
        self.finished = None
        self.deadline = (None if deadline_s is None
                         else self.submitted + float(deadline_s))
        self.stop_event = threading.Event()
        self.done_event = threading.Event()
        self.progress_log = []
        self._progress_cond = threading.Condition()

    def past_deadline(self):
        return self.deadline is not None and time.monotonic() > self.deadline

    def record_progress(self, fields):
        with self._progress_cond:
            fields = dict(fields)
            fields["seq"] = len(self.progress_log) + 1
            self.progress_log.append(fields)
            self._progress_cond.notify_all()

    def notify_watchers(self):
        """Wake progress waiters (terminal transitions call this)."""
        with self._progress_cond:
            self._progress_cond.notify_all()

    def progress_since(self, after_seq, timeout=None):
        """Events with ``seq > after_seq``, blocking up to *timeout*.

        Returns ``(events, terminal)``; ``terminal`` is True once the
        job has finished, so stream consumers know to stop waiting.
        Returns immediately when fresh events or a terminal state are
        already available.
        """
        with self._progress_cond:
            def fresh():
                return self.progress_log[after_seq:]
            events = fresh()
            if not events and self.state not in _TERMINAL:
                self._progress_cond.wait(timeout)
                events = fresh()
            return list(events), self.state in _TERMINAL

    def snapshot(self):
        """A JSON-friendly view of the job record."""
        out = {"id": self.id, "runner": self.name, "state": self.state,
               "cached": self.cached}
        if self.key is not None:
            out["key"] = self.key
        if self.progress_log:
            out["progress"] = self.progress_log[-1]
        if self.error is not None:
            out["error"] = self.error
        if self.started is not None and self.finished is not None:
            out["elapsed_s"] = round(self.finished - self.started, 6)
        return out


#: Registry of named experiment runners: name -> callable(**params).
_RUNNERS = {}


def register_runner(name, fn):
    """Register (or replace) a named experiment runner."""
    _RUNNERS[str(name)] = fn
    return fn


def runner_names():
    return sorted(_RUNNERS)


def _with_progress(name, fn):
    """Wrap a plain runner so it reports start/finish progress.

    The wrapped runner accepts the service's ``context`` and emits a
    ``started``/``finished`` pair through
    :meth:`JobContext.progress`, so even single-shot experiments feed
    the gateway's event stream something observable.  The ``context``
    kwarg never reaches *fn* (and never joins the job params, so
    memoization keys are unaffected).
    """
    def run(context=None, **params):
        if context is not None:
            context.progress(stage=name, status="started")
        out = fn(**params)
        if context is not None:
            context.progress(stage=name, status="finished")
        return out
    run.accepts_context = True
    run.__name__ = f"{name}_runner"
    return run


def _density_sweep(**params):
    from repro.experiments.factors import density_sweep
    return density_sweep(**params)


def _speed_sweep(**params):
    from repro.experiments.factors import speed_sweep
    return speed_sweep(**params)


def _fault_matrix_smoke(**params):
    from repro.experiments.faulted import fault_matrix_smoke
    return fault_matrix_smoke(**params)


def _tcp_vanlan(testbed_seed=5, trips=(0,), seed=0, **params):
    from repro.experiments.tcpbench import tcp_vanlan
    from repro.testbeds.vanlan import VanLanTestbed
    testbed = VanLanTestbed(seed=int(testbed_seed))
    return tcp_vanlan(testbed, trips=tuple(trips), seed=seed, **params)


def _voip_vanlan(testbed_seed=5, trips=(0,), seed=0, **params):
    from repro.experiments.voipbench import voip_vanlan
    from repro.testbeds.vanlan import VanLanTestbed
    testbed = VanLanTestbed(seed=int(testbed_seed))
    return voip_vanlan(testbed, trips=tuple(trips), seed=seed, **params)


def _vanlan_cbr_sweep(trips=3, duration_s=10.0, testbed_seed=0, seed0=0,
                      context=None):
    """Multi-trip VanLAN CBR sweep, one task at a time.

    The incremental shape is deliberate: each trip runs through
    :func:`~repro.experiments.common.run_trips` with the ambient
    result store, so every completed trip is individually memoized —
    a sweep interrupted by a crash (or a cooperative cancel between
    tasks) resumes from warm per-trip entries on resubmission.  Per-
    task progress events feed the gateway's event stream, and
    ``context.should_stop`` is honoured between tasks.

    Returns a JSON-friendly summary: per-trip event counts and a
    SHA-256 digest of the full delivery record, so two runs can be
    compared for bit-identical results over the wire.
    """
    import hashlib

    from repro.experiments.common import run_trips, vanlan_cbr_trip

    n = max(1, int(trips))
    tasks = [
        {"trip": t, "seed": int(seed0) + t,
         "duration_s": float(duration_s),
         "testbed_seed": int(testbed_seed)}
        for t in range(n)
    ]
    summaries = []
    hits = misses = 0
    for i, task in enumerate(tasks):
        if context is not None and context.should_stop():
            return {"partial": True, "completed": i, "total": n,
                    "trips": summaries}
        sweep = run_trips(vanlan_cbr_trip, [task], workers=1)
        record = sweep[0]
        blob = json.dumps(
            {"up": record["up_deliveries"],
             "down": record["down_deliveries"],
             "events": record["events"]},
            sort_keys=True, default=float).encode("utf-8")
        summaries.append({
            "trip": task["trip"], "seed": task["seed"],
            "events": int(record["events"]),
            "digest": hashlib.sha256(blob).hexdigest(),
        })
        hits += sweep.store["hits"]
        misses += sweep.store["misses"]
        if context is not None:
            context.progress(task=i + 1, total=n, trip=task["trip"],
                             store_hits=hits, store_misses=misses)
    return {"partial": False, "completed": n, "total": n,
            "trips": summaries,
            "store": {"hits": hits, "misses": misses}}


_vanlan_cbr_sweep.accepts_context = True

register_runner("density_sweep", _with_progress("density_sweep",
                                                _density_sweep))
register_runner("speed_sweep", _with_progress("speed_sweep",
                                              _speed_sweep))
register_runner("fault_matrix_smoke",
                _with_progress("fault_matrix_smoke", _fault_matrix_smoke))
register_runner("tcp_vanlan", _with_progress("tcp_vanlan", _tcp_vanlan))
register_runner("voip_vanlan", _with_progress("voip_vanlan", _voip_vanlan))
register_runner("vanlan_cbr_sweep", _vanlan_cbr_sweep)


class ExperimentService:
    """Bounded-concurrency, store-backed experiment job queue.

    Args:
        store: result store for job memoization — a
            :class:`~repro.store.ResultStore`, a path, ``None`` for the
            ambient default, or ``False`` to disable caching.
        workers: number of worker threads (>= 1).
        queue_limit: max queued-but-not-running jobs before
            :meth:`submit` raises :class:`ServiceSaturated`.
        default_deadline_s: deadline applied to jobs submitted without
            an explicit one (``None`` = unbounded).
    """

    def __init__(self, store=None, workers=2, queue_limit=16,
                 default_deadline_s=None):
        self.store = repro_store.resolve_store(store)
        self.default_deadline_s = default_deadline_s
        self._queue = queue.Queue(maxsize=max(1, int(queue_limit)))
        self._jobs = {}  # guarded-by: _lock
        self._by_key = {}  # guarded-by: _lock
        # Reentrant: _finish must be callable both bare (worker loop
        # finishing a job it just ran) and under the lock (cancel of a
        # queued job, close-time finalization).
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-service-{i}", daemon=True)
            for i in range(max(1, int(workers)))
        ]
        for t in self._threads:
            t.start()

    # -- submission / querying ------------------------------------------

    @property
    def closed(self):
        return self._closed

    @staticmethod
    def job_key(name, params):
        """Content-addressed identity of a job request, or ``None``.

        The same key the store memoizes under; the HTTP gateway uses
        it for idempotent resubmission.  ``None`` when the params are
        not canonically tokenizable (such a job is never deduplicated
        or cached — computed fresh each time).
        """
        try:
            return repro_store.result_key(
                "service-job", str(name), sorted(dict(params or {}).items()))
        except repro_store.Uncacheable:
            return None

    def submit(self, name, params=None, deadline_s=None):
        """Queue a job; returns its id.

        Raises:
            ServiceClosed: the service has been shut down.
            ServiceSaturated: the queue is at ``queue_limit``.
            KeyError: *name* is not a registered runner.
        """
        job_id, _ = self.submit_idempotent(name, params,
                                           deadline_s=deadline_s,
                                           dedupe=False)
        return job_id

    def submit_idempotent(self, name, params=None, deadline_s=None,
                          dedupe=True):
        """Queue a job, or attach to an equivalent live one.

        With ``dedupe`` (the default) a request whose content-
        addressed :meth:`job_key` matches a job that is queued,
        running, or done returns that job's id instead of queueing a
        duplicate — the contract a client retry loop relies on after
        a lost response.  Failed / cancelled / expired jobs never
        absorb a resubmission (the retry should get a fresh attempt).

        Returns:
            ``(job_id, attached)`` — ``attached`` is True when an
            existing job was reused.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        if name not in _RUNNERS:
            raise KeyError(f"unknown runner {name!r}; "
                           f"known: {runner_names()}")
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        key = self.job_key(name, params)
        with self._lock:
            if dedupe and key is not None:
                existing_id = self._by_key.get(key)
                existing = self._jobs.get(existing_id)
                if existing is not None and existing.state in (
                        QUEUED, RUNNING, DONE):
                    return existing.id, True
            job = Job(next(self._ids), name, params, deadline_s, key=key)
            self._jobs[job.id] = job
            if key is not None:
                self._by_key[key] = job.id
        try:
            self._queue.put_nowait(job.id)
        except queue.Full:
            with self._lock:
                del self._jobs[job.id]
                if key is not None and self._by_key.get(key) == job.id:
                    del self._by_key[key]
            raise ServiceSaturated(
                f"queue full ({self._queue.maxsize} pending)") from None
        return job.id, False

    def job(self, job_id):
        with self._lock:
            return self._jobs[job_id]

    def status(self, job_id):
        return self.job(job_id).snapshot()

    def wait(self, job_id, timeout=None):
        """Block until the job reaches a terminal state; returns it."""
        job = self.job(job_id)
        job.done_event.wait(timeout)
        return job

    def cancel(self, job_id):
        """Request cancellation; immediate for queued jobs.

        Returns True if the job is (or will be treated as) cancelled.
        A job that already reached a terminal state is left untouched
        — cancelling a completed job is a no-op, not a state change.
        """
        job = self.job(job_id)
        with self._lock:
            if job.state in _TERMINAL:
                return job.state == CANCELLED
            job.stop_event.set()
            if job.state == QUEUED:
                self._finish(job, CANCELLED, error="cancelled while queued")
                return True
        return True

    def stats(self):
        """Counts by state plus store counters."""
        with self._lock:
            jobs = list(self._jobs.values())
        counts = {s: 0 for s in (QUEUED, RUNNING, DONE, FAILED,
                                 CANCELLED, EXPIRED)}
        for job in jobs:
            counts[job.state] += 1
        counts["store"] = (self.store.stats.snapshot() if self.store
                           else repro_store.StoreStats().snapshot())
        return counts

    def close(self, wait=True, finalize_timeout_s=30.0):
        """Stop accepting jobs; optionally wait for workers to drain.

        With ``wait`` every job is guaranteed a terminal snapshot
        state by the time this returns: workers are joined (bounded by
        *finalize_timeout_s*), then any job still non-terminal — a
        queued job no worker will ever pick up, or a cancelled job
        whose runner never reached a ``should_stop`` check before the
        join timed out — is finalized ``cancelled``.  A runner thread
        that later limps home finds the job already terminal and its
        result is discarded (:meth:`_finish` is first-writer-wins).
        """
        self._closed = True
        for _ in self._threads:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                break
        if not wait:
            return
        deadline = time.monotonic() + float(finalize_timeout_s)
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            leftovers = [j for j in self._jobs.values()
                         if j.state not in _TERMINAL]
            for job in leftovers:
                job.stop_event.set()
                self._finish(job, CANCELLED,
                             error="service closed before job finished"
                             if job.state == QUEUED
                             else "cancelled; finalized at close")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- worker side ----------------------------------------------------

    def _finish(self, job, state, result=None, error=None):
        """Transition *job* to a terminal state, exactly once.

        First writer wins: a cancel racing normal completion (or a
        close-time finalization racing a slow worker) resolves to
        whichever terminal transition got here first, and the loser's
        write is dropped instead of corrupting a terminal record.
        Returns True when this call performed the transition.
        """
        with self._lock:
            if job.state in _TERMINAL:
                return False
            job.state = state
            job.result = result
            job.error = error
            job.finished = time.monotonic()
        job.done_event.set()
        job.notify_watchers()
        return True

    def _worker_loop(self):
        while True:
            try:
                # Bounded wait so shutdown is never wedged by a full
                # queue that rejected the close() sentinel.
                job_id = self._queue.get(timeout=0.25)
            except queue.Empty:
                if self._closed:
                    return
                continue
            if job_id is None:
                return
            job = self.job(job_id)
            with self._lock:
                if job.state != QUEUED:
                    continue  # cancelled while queued
                if job.past_deadline():
                    self._finish(job, EXPIRED,
                                 error="deadline passed while queued")
                    continue
                job.state = RUNNING
                job.started = time.monotonic()
            try:
                result = self._execute(job)
            except Exception as exc:  # repro-lint: allow[SILENT-EXCEPT] worker loop captures the traceback into the job record (FAILED) and keeps serving; dying here would strand every queued job
                log.warning("job %d (%s) failed: %s", job.id, job.name, exc)
                self._finish(job, FAILED,
                             error="".join(traceback.format_exception(
                                 type(exc), exc, exc.__traceback__)))
                continue
            if job.stop_event.is_set():
                self._finish(job, CANCELLED, error="cancelled while running")
            elif job.past_deadline():
                self._finish(job, EXPIRED, error="deadline exceeded")
            else:
                self._finish(job, DONE, result=result)

    def _execute(self, job):
        runner = _RUNNERS[job.name]
        kwargs = dict(job.params)
        if getattr(runner, "accepts_context", False):
            kwargs["context"] = JobContext(job)

        def compute():
            return runner(**kwargs)

        if self.store is None:
            return compute()
        key = job.key
        if key is None:
            log.info("job %d (%s) not cacheable; computing",
                     job.id, job.name)
            return compute()
        before = self.store.stats.hits
        try:
            value = self.store.get_or_compute(key, compute)
        except OSError as exc:  # store layer degrades; double belt
            log.warning("store failure for job %d (%s): %s; computing",
                        job.id, job.name, exc)
            return compute()
        job.cached = self.store.stats.hits > before
        return value


def parse_job_request(line):
    """Validate one JSON job-request line into ``(name, params, dl)``.

    Raises ``ValueError`` with a human-readable reason for every
    malformed shape — bad JSON, non-object request, missing or
    non-string runner, non-object params, non-numeric deadline — so
    the serving loops can answer with a structured error instead of
    whatever exception the bad shape happened to trip.
    """
    try:
        request = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object, got "
                         + type(request).__name__)
    name = request.get("runner")
    if not isinstance(name, str) or not name:
        raise ValueError("missing or non-string 'runner'")
    params = request.get("params")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ValueError("'params' must be a JSON object, got "
                         + type(params).__name__)
    deadline_s = request.get("deadline_s")
    if deadline_s is not None:
        if isinstance(deadline_s, bool) or \
                not isinstance(deadline_s, (int, float)):
            raise ValueError("'deadline_s' must be a number")
        deadline_s = float(deadline_s)
    return name, params, deadline_s


def main_serve(argv=None):
    """``python -m repro serve``: service harness (stdin or HTTP).

    Default mode reads one JSON object per stdin line —
    ``{"runner": name, "params": {...}, "deadline_s": 5.0}`` — submits
    each to an :class:`ExperimentService`, and prints one JSON result
    line per job in submission order.  A malformed line (bad JSON,
    non-object request, unknown runner, saturated queue, ...) emits a
    structured ``{"state": "rejected", ...}`` line and the loop keeps
    serving; nothing a client sends can kill it.  Exits non-zero if
    any job was rejected or failed.  ``--list`` prints the registered
    runners instead.

    ``--http HOST:PORT`` serves the same jobs over the fault-tolerant
    asyncio HTTP gateway (:mod:`repro.gateway`) until SIGTERM/SIGINT
    drains it.  ``PORT`` may be 0 (ephemeral); the bound address is
    announced on stdout as ``gateway listening on HOST:PORT``.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run experiment jobs from stdin JSON lines "
                    "or over HTTP.")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory (default: "
                             "$REPRO_RESULT_STORE, else no cache)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-limit", type=int, default=16)
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-job deadline")
    parser.add_argument("--http", default=None, metavar="HOST:PORT",
                        help="serve over HTTP instead of stdin lines")
    parser.add_argument("--max-connections", type=int, default=64,
                        help="HTTP: max concurrent connections")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="HTTP: max wait for in-flight jobs on "
                             "SIGTERM/SIGINT")
    parser.add_argument("--header-timeout", type=float, default=5.0,
                        metavar="SECONDS",
                        help="HTTP: deadline for reading request head")
    parser.add_argument("--body-timeout", type=float, default=15.0,
                        metavar="SECONDS",
                        help="HTTP: deadline for reading request body")
    parser.add_argument("--max-body-bytes", type=int, default=1 << 20,
                        help="HTTP: request body size limit")
    parser.add_argument("--list", action="store_true",
                        help="list registered runners and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in runner_names():
            print(name)
        return 0

    store = args.store if args.store is not None else None
    service = ExperimentService(store=store, workers=args.workers,
                                queue_limit=args.queue_limit,
                                default_deadline_s=args.deadline)

    if args.http is not None:
        from repro.gateway import GatewayLimits, serve_http
        host, _, port = args.http.rpartition(":")
        limits = GatewayLimits(
            max_connections=args.max_connections,
            header_timeout_s=args.header_timeout,
            body_timeout_s=args.body_timeout,
            max_body_bytes=args.max_body_bytes,
        )
        return serve_http(service, host or "127.0.0.1", int(port),
                          limits=limits,
                          drain_timeout_s=args.drain_timeout)

    job_ids = []
    failed = 0
    with service:
        for line in sys.stdin:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                name, params, deadline_s = parse_job_request(line)
                job_ids.append(service.submit(name, params,
                                              deadline_s=deadline_s))
            except Exception as exc:  # repro-lint: allow[SILENT-EXCEPT] a bad stdin line becomes a structured rejection on stdout; it must never take the serving loop down
                failed += 1
                print(json.dumps({"state": "rejected",
                                  "error": str(exc),
                                  "error_type": type(exc).__name__,
                                  "line": line}))
        for job_id in job_ids:
            job = service.wait(job_id)
            out = job.snapshot()
            if job.state == DONE:
                out["result"] = job.result
            print(json.dumps(out, default=str))
            if job.state != DONE:
                failed += 1
        summary = service.stats()
    print(json.dumps({"summary": summary}), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_serve())
