"""Smoke tests: every ``examples/*.py`` runs against current defaults.

The examples are the repository's front door; they import the public
builders directly, so any drift between them and evolving defaults
(builder signatures, prefill options, config fields) would otherwise
surface only when a human runs them.  Each example accepts
``--seconds`` to cap its simulated duration, which keeps these runs
inside the tier-1 budget while still exercising the full build-and-run
pipeline.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES_DIR = REPO_ROOT / "examples"

EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))

#: Simulated-seconds cap per example: long enough for warmup plus some
#: real traffic, short enough for tier-1.
SMOKE_SECONDS = "12"


def test_every_example_is_covered():
    """A new example file automatically joins the parametrized run."""
    assert EXAMPLES, "examples/ directory is empty?"


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_with_tiny_duration(script):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing \
        else src + os.pathsep + existing
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script),
         "--seconds", SMOKE_SECONDS],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
        env=env,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n--- stdout ---\n{result.stdout}\n"
        f"--- stderr ---\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script} printed nothing"
