"""Command-line entry point: regenerate a paper artifact by name.

Usage::

    python -m repro list
    python -m repro fig09_tcp_vanlan
    python -m repro table1_coordination
    python -m repro lint [--json]
    python -m repro store stats
    python -m repro serve --list

An artifact name is an entry of :data:`repro.figures.FIGURES`, named by
its results stem.  The command runs the entry at benchmark scale and
prints the JSON text its benchmark writes to ``results/<name>.json``.
The benchmarks add the printed tables and shape assertions: run them
all with ``python -m pytest benchmarks/``, or one with
``python -m pytest benchmarks/bench_<name>.py``.  Performance is
measured by ``python bench/run.py`` (see ``bench/README.md``).

``store`` inspects/maintains the content-addressed result store
(:mod:`repro.store`); ``serve`` runs experiment jobs from stdin JSON
lines through the hardened service layer (:mod:`repro.service`).
Experiments memoize through the store named by ``$REPRO_RESULT_STORE``
when it is set.
"""

import argparse
import sys

from repro.figures import FIGURES, payload_text


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate a ViFi paper artifact.",
    )
    parser.add_argument("experiment",
                        choices=list(FIGURES)
                        + ["lint", "list", "store", "serve"],
                        help="artifact name, 'lint' for the invariant "
                             "lint, 'store'/'serve' for the result "
                             "store and service, or 'list' to "
                             "enumerate")
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
        rows = [(name, figure.description)
                for name, figure in FIGURES.items()]
        rows += [
            ("lint", "AST invariant lint (see INVARIANTS.md)"),
            ("store", "inspect/verify/clear the result store"),
            ("serve", "run experiment jobs from stdin JSON lines"),
        ]
        for name, description in rows:
            print(f"{name:<20s} {description}")
        return 0

    figure = FIGURES[args.experiment]
    print(f"# {args.experiment}: {figure.description}", file=sys.stderr)
    print(payload_text(figure.payload(figure.run())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
