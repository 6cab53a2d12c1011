"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at a
reduced-but-faithful scale through its :data:`repro.figures.FIGURES`
entry (``bench_<name>.py`` runs entry ``<name>``), prints the same
rows/series the paper reports, and saves the entry's JSON payload under
``results/``.  Shape assertions are deliberately loose: the goal is
who-wins-by-roughly-what-factor, not absolute numbers, since the
testbeds are synthetic models of the paper's environments rather than
its traces.
"""

import pathlib

import pytest

from repro.figures import FIGURES, payload_text

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def figure(request):
    """The registry entry of the requesting ``bench_<name>.py``."""
    return FIGURES[request.path.stem[len("bench_"):]]


@pytest.fixture()
def save_results(results_dir):
    """Persist a benchmark's payload as results/<name>.json."""

    def _save(name, payload):
        path = results_dir / f"{name}.json"
        path.write_text(payload_text(payload))
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
