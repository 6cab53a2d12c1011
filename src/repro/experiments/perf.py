"""Host and revision context for benchmark records.

``bench/run.py`` stamps every record it writes with :func:`host_context`
and :func:`git_sha`, so a measurement is attributable to a machine
condition and a commit.
"""

import pathlib
import subprocess

__all__ = [
    "git_sha",
    "host_context",
]


def host_context():
    """Host-state snapshot recorded alongside every measurement.

    Perf numbers from shared runners are meaningless without knowing
    how loaded the box was and which interpreter produced them; these
    fields make a benchmark record self-describing:

    * ``cpu_count`` — logical CPUs visible to the process;
    * ``loadavg_1m`` — 1-minute load average at measurement time
      (``None`` where the platform has no ``getloadavg``), the
      contention signal to read a surprising delta against;
    * ``python`` / ``numpy`` — interpreter and array-library versions.
    """
    import os
    import platform

    import numpy

    try:
        loadavg = round(os.getloadavg()[0], 2)
    except (AttributeError, OSError):
        loadavg = None
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_1m": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_sha():
    """Short commit hash of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"
