#!/usr/bin/env python
"""Fault-matrix smoke: every injected-fault kind completes and delivers.

Usage::

    PYTHONPATH=src python tools/fault_smoke.py [--seconds N]

Runs a short ViFi trip once per :data:`repro.experiments.faulted.
FAULT_MATRIX` cell — no-fault, BS radio outages, backplane partitions,
backplane latency spikes, beacon-loss bursts, vehicle radio resets —
and fails if any cell raises, stalls, drives delivery to zero while
the vehicle is reachable, or (a faulted cell) injects nothing, which
would leave its kind untested.  This is the CI guard for the
graceful-degradation contract: faults may degrade service but must
never crash the protocol stack or wedge the event loop.

The no-fault cell doubles as a sanity anchor: it must inject nothing
(``injected == {}``) and deliver essentially everything, so a fault
plane that leaks into the nominal world is caught here before the
(slower) bitwise digest anchors run.

Intended to run as a stage of ``tools/ci_check.py``.
"""

import argparse
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.faulted import (  # noqa: E402
    FAULT_MATRIX,
    fault_matrix_smoke,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="simulated duration per matrix cell")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    results = fault_matrix_smoke(duration_s=args.seconds)
    wall = time.perf_counter() - t0

    failures = []
    for name in FAULT_MATRIX:
        summary = results.get(name)
        if summary is None:
            failures.append(f"{name}: cell did not complete")
            continue
        injected = ", ".join(
            f"{kind} x{count}"
            for kind, count in sorted(summary["injected"].items())
        ) or "nothing"
        print(f"{name:<13s} delivery {summary['delivery']:>6.1%}  "
              f"mos {summary['mos']:.2f}  injected {injected}")
        if summary["delivery"] <= 0.0:
            failures.append(f"{name}: delivery hit zero")
        if name != "no-fault" and not summary["injected"]:
            failures.append(f"{name}: no fault injected")
    if results.get("no-fault", {}).get("injected"):
        failures.append("no-fault cell injected faults — the fault "
                        "plane leaked into the nominal world")

    print(f"fault matrix ran in {wall:.1f} s")
    if failures:
        for failure in failures:
            print(f"FAULT SMOKE FAILED: {failure}", file=sys.stderr)
        return 1
    print("fault smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
