"""Smoke tests for the experiment orchestration package.

Small-scale versions of each experiment entry point: these guard the
wiring (the benchmarks exercise the real scales and the shape
assertions).
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.protocol import ViFiConfig
from repro.experiments.common import (
    dieselnet_protocol,
    run_protocol_cbr,
    vanlan_protocol,
)
from repro.experiments.coordination import relay_count_spread
from repro.experiments.study import (
    diversity_cdfs,
    policy_factories,
    two_bs_experiment,
)
from repro.sim.rng import RngRegistry
from repro.testbeds.dieselnet import DieselNetTestbed
from repro.testbeds.vanlan import VanLanTestbed


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class TestColdImport:
    """A package's ``__init__`` is only its docstring and re-exports
    nothing, so importing a module in a fresh interpreter loads only
    its packages and what the module itself imports."""

    @staticmethod
    def _loaded(*modules):
        """The ``repro`` modules loaded by importing *modules* in a
        fresh interpreter, sorted."""
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) if not existing \
            else str(SRC) + os.pathsep + existing
        code = (f"import json, sys, {', '.join(modules)}; "
                "print(json.dumps(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'repro')))")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True,
                                timeout=120, env=env)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_sweep_runner_import_stays_lean(self):
        """The sweep runner loads neither the other experiment modules
        nor the handoff and analysis layers."""
        loaded = self._loaded("repro.experiments.common")
        avoided = ("repro.experiments.study",
                   "repro.experiments.coordination",
                   "repro.handoff", "repro.analysis")
        assert [m for m in avoided if m in loaded] == []

    def test_packages_load_none_of_their_modules(self):
        """Importing every package loads no module of any package, and
        the relay formulation, which imports nothing of the repo, loads
        only itself and its packages."""
        packages = sorted(f"repro.{init.parent.name}"
                          for init in SRC.glob("repro/*/__init__.py"))
        assert self._loaded(*packages) == ["repro", *packages]
        assert self._loaded("repro.core.relaying") \
            == ["repro", "repro.core", "repro.core.relaying"]


@pytest.fixture(scope="module")
def vanlan():
    return VanLanTestbed(seed=77)


@pytest.fixture(scope="module")
def dieselnet_log():
    return DieselNetTestbed(channel=1, seed=77).generate_beacon_log(0)


class TestCommon:
    def test_vanlan_protocol_runs(self, vanlan):
        sim, duration = vanlan_protocol(vanlan, trip=0, seed=1)
        assert duration > 60
        cbr = run_protocol_cbr(sim, 40.0)
        assert cbr.packets_sent > 300
        assert 0.0 < cbr.delivery_rate() <= 1.0

    def test_dieselnet_protocol_runs(self, dieselnet_log):
        rngs = RngRegistry(5).spawn("t")
        sim, duration = dieselnet_protocol(dieselnet_log, rngs, seed=1)
        assert duration == pytest.approx(dieselnet_log.n_secs)
        cbr = run_protocol_cbr(sim, 30.0)
        assert cbr.delivery_rate() > 0.2

    def test_protocol_runs_reproducible(self, vanlan):
        rates = []
        for _ in range(2):
            sim, _ = vanlan_protocol(vanlan, trip=0, seed=1)
            cbr = run_protocol_cbr(sim, 30.0)
            rates.append(cbr.delivery_rate())
        assert rates[0] == rates[1]

    def test_brr_variant_runs(self, vanlan):
        config = ViFiConfig().brr_variant()
        sim, _ = vanlan_protocol(vanlan, trip=0, config=config, seed=1)
        cbr = run_protocol_cbr(sim, 30.0)
        assert cbr.delivery_rate() > 0.0


class TestStudyPieces:
    def test_policy_factories_complete(self):
        factories = policy_factories()
        assert set(factories) == {
            "RSSI", "BRR", "Sticky", "History", "BestBS", "AllBSes",
        }
        for name, factory in factories.items():
            policy = factory(None)
            assert policy.name == name

    def test_diversity_cdfs(self, dieselnet_log):
        xs, ys, hist = diversity_cdfs([dieselnet_log])
        assert hist.sum() == dieselnet_log.n_secs
        assert ys[-1] == pytest.approx(1.0)

    def test_two_bs_experiment_keys(self, vanlan):
        cond = two_bs_experiment(vanlan, bs_a=5, bs_b=6, trip=0,
                                 duration_s=60.0)
        assert set(cond) == {
            "P(A)", "P(A+1|!A)", "P(B+1|!A)",
            "P(B)", "P(B+1|!B)", "P(A+1|!B)",
        }
        for value in cond.values():
            assert math.isnan(value) or 0.0 <= value <= 1.0


class TestRelaySpread:
    def test_mean_relays_near_one(self):
        mean, var, hist = relay_count_spread(
            5, p_hear_src=0.7, p_to_dst=0.6, p_src_dst=0.5,
            n_packets=3000, seed=1,
        )
        assert mean == pytest.approx(1.0, abs=0.15)
        assert var > 0
        assert hist.sum() == 3000

    def test_asymmetric_inputs_accepted(self):
        mean, _, _ = relay_count_spread(
            3, p_hear_src=[0.9, 0.5, 0.2], p_to_dst=[0.9, 0.5, 0.2],
            p_src_dst=0.4, n_packets=1000, seed=2,
        )
        assert 0.0 <= mean <= 3.0

    def test_strategy_selectable(self):
        mean_g3, _, _ = relay_count_spread(
            6, p_hear_src=0.8, p_to_dst=0.3, p_src_dst=0.3,
            n_packets=2000, seed=3, strategy="not-g3",
        )
        mean_vifi, _, _ = relay_count_spread(
            6, p_hear_src=0.8, p_to_dst=0.3, p_src_dst=0.3,
            n_packets=2000, seed=3, strategy="vifi",
        )
        # NotG3 targets one expected *delivery* over weak links, so it
        # must relay more than ViFi's one expected *relay*.
        assert mean_g3 > mean_vifi
