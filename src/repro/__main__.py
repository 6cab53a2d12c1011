"""Command-line entry point: run a paper experiment by name.

Usage::

    python -m repro list
    python -m repro fig07 [--seed N]
    python -m repro table1
    python -m repro lint [--json]
    python -m repro store stats
    python -m repro serve --list

Each experiment prints the same rows/series as the corresponding paper
artifact at a reduced scale.  For the full benchmark harness (with
shape assertions and JSON outputs) use
``pytest benchmarks/ --benchmark-only``.  Performance is measured by
``python bench/run.py`` (see ``bench/README.md``).

``store`` inspects/maintains the content-addressed result store
(:mod:`repro.store`); ``serve`` runs experiment jobs from stdin JSON
lines through the hardened service layer (:mod:`repro.service`).
Experiments memoize through the store named by ``$REPRO_RESULT_STORE``
when it is set.
"""

import argparse
import json
import sys


def _fig05(seed):
    from repro.experiments.study import diversity_cdfs
    from repro.testbeds.dieselnet import DieselNetTestbed
    from repro.testbeds.vanlan import VanLanTestbed

    vanlan = VanLanTestbed(seed=seed)
    logs = {
        "VanLAN": [vanlan.beacon_log_from_trace(
            vanlan.generate_probe_trace(0))],
        "DieselNet Ch1": [
            DieselNetTestbed(1, seed=seed).generate_beacon_log(0)],
        "DieselNet Ch6": [
            DieselNetTestbed(6, seed=seed).generate_beacon_log(0)],
    }
    out = {}
    for env, env_logs in logs.items():
        _, _, hist = diversity_cdfs(env_logs)
        out[env] = {"histogram(>=1 beacon)": [int(h) for h in hist]}
    return out


def _fig07(seed):
    from repro.experiments.linklayer import (
        link_layer_sessions,
        policy_session_medians,
    )
    from repro.testbeds.vanlan import VanLanTestbed

    testbed = VanLanTestbed(seed=3)
    _, live = link_layer_sessions(testbed, trips=(0,), seed=seed)
    _, oracle = policy_session_medians(testbed, trips=(0,))
    return {"median_session_s": {**live, **oracle}}


def _fig09(seed):
    from repro.experiments.tcpbench import standard_tcp_variants, tcp_vanlan
    from repro.testbeds.vanlan import VanLanTestbed

    return tcp_vanlan(VanLanTestbed(seed=5), trips=(0,),
                      variants=standard_tcp_variants(), seed=seed)


def _fig11(seed):
    from repro.experiments.voipbench import voip_vanlan
    from repro.testbeds.vanlan import VanLanTestbed

    return voip_vanlan(VanLanTestbed(seed=5), trips=(0,), seed=seed)


def _table1(seed):
    from repro.experiments.coordination import coordination_table
    from repro.testbeds.vanlan import VanLanTestbed

    reports = coordination_table(VanLanTestbed(seed=5), trips=(0,),
                                 seed=seed)
    return {direction: dict(report.rows())
            for direction, report in reports.items()}


def _table2(seed):
    from repro.experiments.coordination import formulation_comparison
    from repro.testbeds.dieselnet import DieselNetTestbed

    return formulation_comparison(DieselNetTestbed(channel=1, seed=2),
                                  days=(0,), seed=seed)


def _validate(seed):
    from repro.experiments.validation import validate_trace_methodology
    from repro.testbeds.vanlan import VanLanTestbed

    return validate_trace_methodology(VanLanTestbed(seed=5), trips=(0,),
                                      seed=seed)


EXPERIMENTS = {
    "fig05": (_fig05, "visible-BS diversity histograms"),
    "fig07": (_fig07, "link-layer session medians (ViFi vs policies)"),
    "fig09": (_fig09, "TCP on VanLAN (BRR / diversity-only / ViFi)"),
    "fig11": (_fig11, "VoIP sessions on VanLAN (ViFi vs BRR)"),
    "table1": (_table1, "ViFi coordination statistics"),
    "table2": (_table2, "relaying-formulation comparison"),
    "validate": (_validate, "trace-driven vs deployment validation"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a reduced-scale ViFi paper experiment.",
    )
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS)
                        + ["lint", "list", "store", "serve"],
                        help="experiment id, 'lint' for the invariant "
                             "lint, 'store'/'serve' for the result "
                             "store and service, or 'list' to "
                             "enumerate")
    parser.add_argument("--seed", type=int, default=7,
                        help="root seed (default 7)")
    args, extra = parser.parse_known_args(argv)
    if extra and args.experiment not in ("lint", "store", "serve"):
        parser.error(f"unrecognized arguments: {' '.join(extra)}")

    if args.experiment == "lint":
        from repro.lint.cli import main_lint
        return main_lint(extra)

    if args.experiment == "store":
        from repro.store import main_store
        return main_store(extra)

    if args.experiment == "serve":
        from repro.service import main_serve
        return main_serve(extra)

    if args.experiment == "list":
        for name, (_, description) in sorted(EXPERIMENTS.items()):
            print(f"{name:<10s} {description}")
        for name, description in (
            ("lint", "AST invariant lint (see INVARIANTS.md)"),
            ("store", "inspect/verify/clear the result store"),
            ("serve", "run experiment jobs from stdin JSON lines"),
        ):
            print(f"{name:<10s} {description}")
        return 0

    runner, description = EXPERIMENTS[args.experiment]
    print(f"# {args.experiment}: {description} (seed {args.seed})",
          file=sys.stderr)
    result = runner(args.seed)
    print(json.dumps(result, indent=2, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
