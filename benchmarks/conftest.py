"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at a
reduced-but-faithful scale, prints the same rows/series the paper
reports, and saves a JSON payload under ``results/``.  Shape assertions
are deliberately loose: the goal is who-wins-by-roughly-what-factor,
not absolute numbers, since the testbeds are synthetic models of the
paper's environments rather than its traces.
"""

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def save_results(results_dir):
    """Persist a benchmark's payload as results/<name>.json."""

    def _save(name, payload):
        path = results_dir / f"{name}.json"
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, default=float)
        return path

    return _save


def print_table(title, rows, headers=None):
    """Print an aligned table of (label, *values) rows."""
    print(f"\n=== {title} ===")
    if headers:
        print("  " + "  ".join(f"{h:>12s}" for h in headers))
    for row in rows:
        label, *values = row
        cells = "  ".join(
            f"{v:12.3f}" if isinstance(v, float) else f"{v!s:>12s}"
            for v in values
        )
        print(f"  {label:<42s}{cells}")
