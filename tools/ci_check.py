#!/usr/bin/env python
"""Single CI entry point: tier-1, lint, slow and bench tests, smokes.

Usage::

    python tools/ci_check.py [--fast]

Runs, in order:

1. the tier-1 test suite (``pytest -x -q`` — fast tests only; the
   ``slow`` marker is excluded by ``pytest.ini``),
2. the invariant lint (``python -m repro lint``): the PR 10 static
   rules over the determinism, store-key, and concurrency contracts
   (see ``INVARIANTS.md``).  The stage prints per-rule finding counts
   plus baselined/pragma-suppressed totals, so lint drift is visible
   in the gate output even when the gate passes,
3. the slow tests (``pytest -m slow``): the faulted study's
   delivery-gap trend over fault intensity (``tests/test_faults.py``),
   the ring/bitmap relay bookkeeping's long-schedule oracle equality
   against the dict reference (``tests/test_packet_bank.py``), and
   pool == serial for a multi-trip ``run_trips`` sweep
   (``tests/test_run_trips_resilience.py``).  The stage fails if the
   slow marker collects nothing, so a marker typo cannot silently skip
   the suite,
4. the benchmark's own tests (``pytest -q bench/test_bench.py``).
   The benchmark reaches into ``src/`` by name — ``bench/tracer.py``
   patches ``run_trips`` and the layers' class entry points, and
   ``bench/workloads.py`` reads medium and estimator counters as
   plain attributes — so a rename under ``src/`` that breaks every
   benchmark run fails here,
5. the fault-matrix smoke (``tools/fault_smoke.py``): one short ViFi
   trip per injected-fault kind (no-fault, BS outage, backplane
   partition, beacon-loss burst) — every cell must complete without
   error and keep delivery above zero while the vehicle is reachable
   (the PR 7 graceful-degradation contract),
6. the result-store smoke (``tools/store_smoke.py``): a pinned sweep
   run cold, warm, with every stored byte-flipped entry quarantined
   and recomputed, and against an unusable store root — the PR 8
   self-healing contract (corruption and dead media cost
   recomputation, never a crash or a wrong result),
7. the gateway chaos smoke (``tools/gateway_smoke.py``): the
   wire-transport contract — a ``kill -9`` mid-sweep, restart, and
   idempotent resubmission must end bit-identical with warm store
   hits; malformed/slow/oversized requests must map to structured
   4xx/5xx; an overload burst must surface 429/503 and still
   complete; SIGTERM must drain gracefully.  Zero server tracebacks
   throughout.  Skips itself (exit 0, with the reason) when loopback
   sockets are unavailable.

Performance is not a stage: ``python bench/run.py`` measures it, and a
change is judged by running that benchmark on the change and on its
parent (see ``bench/README.md``).

``--fast`` is the inner-loop variant: every stage except the slow
tests and the benchmark's tests (run the full check before merging).

Exits non-zero as soon as a stage fails, and prints a one-line summary
per stage either way.
"""

import argparse
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(label, argv, env_src=True):
    import os
    env = dict(os.environ)
    if env_src:
        src = str(REPO_ROOT / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing \
            else src + os.pathsep + existing
    t0 = time.perf_counter()
    result = subprocess.run(argv, cwd=REPO_ROOT, env=env)
    wall = time.perf_counter() - t0
    status = "ok" if result.returncode == 0 else \
        f"FAILED (exit {result.returncode})"
    print(f"[ci_check] {label}: {status} in {wall:.1f} s", flush=True)
    return result.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="inner-loop mode: every stage except the "
                             "slow tests and the benchmark's tests")
    args = parser.parse_args(argv)

    stages = [
        ("tier-1 tests",
         [sys.executable, "-m", "pytest", "-x", "-q"]),
        ("invariant lint (python -m repro lint)",
         [sys.executable, "-m", "repro", "lint"]),
    ]
    if not args.fast:
        stages.append((
            "slow tests",
            [sys.executable, "-m", "pytest", "-q", "-m", "slow",
             "--override-ini", "addopts="],
        ))
        stages.append((
            "benchmark tests (bench/test_bench.py)",
            [sys.executable, "-m", "pytest", "-q", "bench/test_bench.py"],
        ))
    stages.append((
        "fault-matrix smoke",
        [sys.executable, str(REPO_ROOT / "tools" / "fault_smoke.py")],
    ))
    stages.append((
        "result-store smoke",
        [sys.executable, str(REPO_ROOT / "tools" / "store_smoke.py")],
    ))
    stages.append((
        "gateway chaos smoke",
        [sys.executable, str(REPO_ROOT / "tools" / "gateway_smoke.py")],
    ))

    for label, cmd in stages:
        code = _run(label, cmd)
        if code != 0:
            return code
    print("[ci_check] all stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
