"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at a
reduced-but-faithful scale through its :data:`repro.figures.FIGURES`
entry (``bench_<name>.py`` runs entry ``<name>``), prints the same
rows/series the paper reports, and saves the entry's JSON payload under
``results/``.  Shape assertions are deliberately loose: the goal is
who-wins-by-roughly-what-factor, not absolute numbers, since the
testbeds are synthetic models of the paper's environments rather than
its traces.

Benchmarks share one result store per session, the directory
``REPRO_RESULT_STORE`` names or else a temporary one, so protocol runs
that several figures read are computed once per session.
"""

import os
import pathlib

import pytest

from repro import store as repro_store
from repro.figures import FIGURES, payload_text

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def session_store(tmp_path_factory):
    return repro_store.ResultStore(os.environ.get(repro_store.STORE_ENV_VAR)
                                   or tmp_path_factory.mktemp("store"))


@pytest.fixture()
def figure(request, session_store):
    """The registry entry of the requesting ``bench_<name>.py``.

    The session's store is installed only while the benchmark runs, so
    tests collected alongside see no ambient store.
    """
    repro_store.set_default_store(session_store)
    yield FIGURES[request.path.stem[len("bench_"):]]
    repro_store.set_default_store(None)


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
