"""Tests for the ``python -m repro`` command-line entry point."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.figures import FIGURES, payload_text

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_list_enumerates_experiments(capsys):
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed[:len(FIGURES)] == list(FIGURES)


def test_list_loads_no_simulation_code():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys; from repro.__main__ import main; main(['list']); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.')), file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == "['repro.__main__', 'repro.figures']"


def test_registry_matches_benchmarks_and_results():
    benchmarks = {path.stem[len("bench_"):]
                  for path in (ROOT / "benchmarks").glob("bench_*.py")}
    results = {path.stem for path in (ROOT / "results").glob("*.json")}
    assert len(FIGURES) == 17
    assert set(FIGURES) == benchmarks == results


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-an-experiment"])
    assert exc.value.code != 0


def test_seed_option_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["fig05_diversity", "--seed", "3"])
    assert exc.value.code != 0


class _Benchmark:
    """Stands in for pytest-benchmark's fixture: one plain call."""

    @staticmethod
    def pedantic(run, rounds, iterations):
        return run()


def test_fig05_runs_and_emits_json(capsys, monkeypatch):
    """The CLI prints the JSON text the Figure 5 benchmark saves."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    bench = importlib.import_module("bench_fig05_diversity")
    saved = {}
    bench.test_fig05_visible_bs_cdf(
        _Benchmark(),
        lambda name, payload: saved.update({name: payload_text(payload)}),
        FIGURES["fig05_diversity"])
    capsys.readouterr()
    assert main(["fig05_diversity"]) == 0
    out = capsys.readouterr().out
    assert out == saved["fig05_diversity"] + "\n"
    assert set(json.loads(out)) == {
        f"{env}/{notion}" for env in ("VanLAN", "DieselNet Ch1",
                                      "DieselNet Ch6")
        for notion in ("any", "half")
    }


def test_list_mentions_store_and_serve(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "store" in out and "serve" in out


def test_store_stats_subcommand(capsys, tmp_path):
    from repro.store import ResultStore, result_key

    store = ResultStore(tmp_path)
    store.put(result_key("cli-test", 1), {"v": 1})
    assert main(["store", "stats", "--dir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 1
    assert payload["quarantined"] == 0

    assert main(["store", "verify", "--dir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified_ok"] == 1


def test_serve_list_subcommand(capsys):
    assert main(["serve", "--list"]) == 0
    out = capsys.readouterr().out
    assert "density_sweep" in out
    assert "tcp_vanlan" in out
