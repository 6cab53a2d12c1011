"""The paper's artifacts: one registry entry per figure, table and aside.

Each entry is named by its results stem.  ``FIGURES["fig09_tcp_vanlan"]``
is what ``benchmarks/bench_fig09_tcp_vanlan.py`` runs, what
``python -m repro fig09_tcp_vanlan`` prints and what the benchmark
saves as ``results/fig09_tcp_vanlan.json``.  An entry holds the driver
call at benchmark scale (testbeds, trips, seeds) and the JSON payload
built from its result; the benchmark adds the printed table and the
shape assertions.  Driver imports stay inside the entries, so loading
the registry loads no simulation code.
"""

import json
from typing import Callable, NamedTuple

__all__ = ["FIGURES", "Figure", "payload_text"]


class Figure(NamedTuple):
    """One artifact: its driver call and the payload of its result."""

    #: Runs the artifact's drivers at benchmark scale.
    run: Callable
    #: Maps :attr:`run`'s result to the payload ``results/`` holds.
    payload: Callable

    @property
    def description(self):
        """The first docstring line of :attr:`run`, as ``list`` shows it."""
        return self.run.__doc__.splitlines()[0]


#: Artifact name -> :class:`Figure`, in the paper's order.
FIGURES = {}


def payload_text(payload):
    """The JSON text of *payload*, as ``results/<name>.json`` holds it.

    JSON writes numeric keys (trips, channels, lags, sizes) as their
    ``str()``, so results keyed by them need no conversion.
    """
    return json.dumps(payload, indent=2, default=float)


def _as_is(result):
    return result


def _figure(payload=_as_is):
    def register(run):
        FIGURES[run.__name__] = Figure(run, payload)
        return run
    return register


@_figure()
def fig02_aggregate():
    """Figure 2: packets per day vs number of basestations (VanLAN)."""
    from repro.experiments.study import aggregate_by_density
    from repro.testbeds.vanlan import VanLanTestbed

    return aggregate_by_density(
        VanLanTestbed(seed=42), day=0, n_trips=2, subset_sizes=(4, 8, 11),
        trials_per_size=3, seed=7,
    )


@_figure()
def fig03_sessions():
    """Figure 3: session-length distribution of the handoff policies."""
    from repro.apps.sessions import (
        adequacy_runs,
        session_lengths,
        time_in_sessions_cdf,
        time_weighted_median_session,
    )
    from repro.experiments.study import policy_factories
    from repro.handoff.evaluator import evaluate_policy
    from repro.testbeds.vanlan import VanLanTestbed

    testbed = VanLanTestbed(seed=3)
    training = [testbed.generate_probe_trace(8000 + i) for i in range(4)]
    pooled = {}
    interruptions = {}
    for trip in (0, 1, 2):
        trace = testbed.generate_probe_trace(trip)
        for name, factory in policy_factories().items():
            policy = factory(training if name == "History" else None)
            adequate = evaluate_policy(trace, policy).adequate_windows()
            pooled.setdefault(name, []).extend(session_lengths(adequate))
            gaps = max(len(adequacy_runs(adequate)) - 1, 0)
            interruptions[name] = interruptions.get(name, 0) + gaps
    return {
        "medians": {name: time_weighted_median_session(lengths)
                    for name, lengths in pooled.items()},
        "interruptions": interruptions,
        "cdf": {
            name: [list(map(float, axis))
                   for axis in time_in_sessions_cdf(lengths)]
            for name, lengths in pooled.items()
        },
    }


@_figure()
def fig04_definitions():
    """Figure 4: median session vs the definition of adequacy."""
    from repro.apps.sessions import (
        session_lengths,
        time_weighted_median_session,
    )
    from repro.experiments.study import policy_factories
    from repro.handoff.evaluator import evaluate_policy
    from repro.testbeds.vanlan import VanLanTestbed

    intervals = [1.0, 2.0, 4.0, 8.0]
    ratios = [0.1, 0.3, 0.5, 0.7, 0.9]
    testbed = VanLanTestbed(seed=42)
    factories = policy_factories()
    outcomes = {name: [] for name in ("BRR", "BestBS", "AllBSes")}
    for trip in (0, 1):
        trace = testbed.generate_probe_trace(trip)
        for name, runs in outcomes.items():
            runs.append(evaluate_policy(trace, factories[name](None)))

    def median_for(name, interval, ratio):
        lengths = []
        for outcome in outcomes[name]:
            adequate = outcome.adequate_windows(interval, ratio)
            lengths.extend(session_lengths(adequate, window_s=interval))
        return time_weighted_median_session(lengths)

    return {
        "intervals": intervals,
        "ratios": ratios,
        "by_interval": {name: [median_for(name, w, 0.5) for w in intervals]
                        for name in outcomes},
        "by_ratio": {name: [median_for(name, 1.0, r) for r in ratios]
                     for name in outcomes},
    }


def _fig05_payload(hists):
    from repro.analysis.diversity import visible_bs_stats

    out = {}
    for (env, notion), hist in hists.items():
        p_zero, median, p_two_plus = visible_bs_stats(hist)
        out[f"{env}/{notion}"] = {
            "p_zero": p_zero, "median": median, "p_two_plus": p_two_plus,
            "histogram": [int(h) for h in hist],
        }
    return out


@_figure(payload=_fig05_payload)
def fig05_diversity():
    """Figure 5: visible BSes per second in the three environments."""
    from repro.experiments.study import diversity_cdfs
    from repro.testbeds.dieselnet import DieselNetTestbed
    from repro.testbeds.vanlan import VanLanTestbed

    vanlan = VanLanTestbed(seed=42)
    logs = {
        "VanLAN": [vanlan.beacon_log_from_trace(
            vanlan.generate_probe_trace(trip)) for trip in (0, 1)],
        "DieselNet Ch1": [DieselNetTestbed(1, seed=9).generate_beacon_log(0)],
        "DieselNet Ch6": [DieselNetTestbed(6, seed=9).generate_beacon_log(0)],
    }
    return {
        (env, notion): diversity_cdfs(env_logs, min_ratio=min_ratio)[2]
        for env, env_logs in logs.items()
        for notion, min_ratio in (("any", None), ("half", 0.5))
    }


@_figure()
def fig06_losses():
    """Figure 6: loss burstiness and path dependence (VanLAN)."""
    from repro.experiments.study import (
        burst_loss_experiment,
        two_bs_experiment,
    )
    from repro.testbeds.vanlan import VanLanTestbed

    testbed = VanLanTestbed(seed=42)
    curve, overall = burst_loss_experiment(
        testbed, bs_id=5, trip=0,
        lags=(1, 2, 5, 10, 50, 100, 500, 1000, 2000), duration_s=120.0,
    )
    return {
        "burst_curve": curve,
        "overall_loss": overall,
        "two_bs": two_bs_experiment(testbed, bs_a=5, bs_b=6, trip=0,
                                    duration_s=150.0),
    }


@_figure()
def fig07_vifi_link():
    """Figure 7: ViFi's link-layer sessions vs the handoff policies."""
    from repro.experiments.linklayer import (
        link_layer_sessions,
        policy_session_medians,
    )
    from repro.testbeds.vanlan import VanLanTestbed

    testbed = VanLanTestbed(seed=3)
    return {**link_layer_sessions(testbed, (0, 1), seed=11),
            **policy_session_medians(testbed, (0, 1))}


@_figure()
def fig08_path():
    """Figure 8: BRR vs ViFi connectivity along one trip."""
    from repro.experiments.linklayer import path_behaviour
    from repro.testbeds.vanlan import VanLanTestbed

    return path_behaviour(VanLanTestbed(seed=3), trip=0, seed=17)


@_figure()
def fig09_tcp_vanlan():
    """Figure 9: TCP on VanLAN (BRR / diversity-only / ViFi)."""
    from repro.experiments.tcpbench import standard_tcp_variants, tcp_vanlan
    from repro.testbeds.vanlan import VanLanTestbed

    return tcp_vanlan(VanLanTestbed(seed=5), (0, 1),
                      variants=standard_tcp_variants(), seed=7)


@_figure()
def fig10_tcp_dieselnet():
    """Figure 10: TCP transfers per second on DieselNet."""
    from repro.experiments.tcpbench import tcp_dieselnet
    from repro.testbeds.dieselnet import DieselNetTestbed

    return {
        channel: tcp_dieselnet(DieselNetTestbed(channel=channel, seed=2),
                               days=(0,), seed=channel)
        for channel in (1, 6)
    }


@_figure()
def fig11_voip():
    """Figure 11: VoIP sessions, ViFi vs BRR, on VanLAN and DieselNet."""
    from repro.experiments.voipbench import voip_dieselnet, voip_vanlan
    from repro.testbeds.dieselnet import DieselNetTestbed
    from repro.testbeds.vanlan import VanLanTestbed

    out = {"VanLAN": voip_vanlan(VanLanTestbed(seed=5), trips=(0, 1, 2),
                                 seed=7)}
    for channel in (1, 6):
        out[f"DieselNet Ch{channel}"] = voip_dieselnet(
            DieselNetTestbed(channel=channel, seed=2), days=(0,),
            seed=channel)
    return out


@_figure()
def fig12_efficiency():
    """Figure 12: packets delivered per data transmission."""
    from repro.experiments.efficiency import efficiency_comparison
    from repro.testbeds.vanlan import VanLanTestbed

    return efficiency_comparison(VanLanTestbed(seed=5), (0, 1), seed=7)


def _table1_payload(reports):
    return {direction: dict(report.rows())
            for direction, report in reports.items()}


@_figure(payload=_table1_payload)
def table1_coordination():
    """Table 1: ViFi coordination statistics (VanLAN TCP)."""
    from repro.experiments.coordination import coordination_table
    from repro.testbeds.vanlan import VanLanTestbed

    return coordination_table(VanLanTestbed(seed=5), (0, 1), seed=7)


@_figure()
def table2_formulations():
    """Table 2: relaying formulation vs its three ablations."""
    from repro.experiments.coordination import formulation_comparison
    from repro.testbeds.dieselnet import DieselNetTestbed

    return formulation_comparison(DieselNetTestbed(channel=1, seed=2),
                                  days=(0,), seed=1)


@_figure()
def validation():
    """Section 5.1: trace-driven vs deployment VoIP session medians."""
    from repro.experiments.validation import validate_trace_methodology
    from repro.testbeds.vanlan import VanLanTestbed

    return validate_trace_methodology(VanLanTestbed(seed=5), (0, 1), seed=7)


@_figure()
def ablation_unicast():
    """Section 5.1 aside: BRR VoIP over broadcast vs 802.11 unicast."""
    from repro.experiments.voipbench import unicast_ablation
    from repro.testbeds.vanlan import VanLanTestbed

    return unicast_ablation(VanLanTestbed(seed=5), trips=(0, 1), seed=13)


def _spread_payload(spreads):
    return {
        name: {"mean": mean, "variance": var,
               "histogram": [int(h) for h in hist]}
        for name, (mean, var, hist) in spreads.items()
    }


@_figure(payload=_spread_payload)
def ablation_limits():
    """Section 5.5.2: relays per packet as auxiliaries multiply."""
    from repro.experiments.coordination import relay_count_spread

    out = {}
    # Growing auxiliary population, symmetric links.
    for n_aux in (3, 8, 16):
        out[f"symmetric n={n_aux}"] = relay_count_spread(
            n_aux, p_hear_src=0.7, p_to_dst=0.6, p_src_dst=0.5,
            n_packets=4000, seed=n_aux,
        )
    # Same population, strongly asymmetric links: two well-placed
    # auxiliaries dominate, concentrating the relay responsibility.
    out["asymmetric n=16"] = relay_count_spread(
        16, p_hear_src=0.7, p_to_dst=[0.95, 0.9] + [0.08] * 14,
        p_src_dst=0.5, n_packets=4000, seed=99,
    )
    return out


@_figure()
def ext_factors():
    """Extension: ViFi vs BRR delivery across BS density and speed."""
    from repro.experiments.factors import density_sweep, speed_sweep

    return {"density": density_sweep(seed=5, subset_sizes=(3, 6, 11)),
            "speed": speed_sweep(seed=5, speeds_kmh=(20.0, 40.0, 60.0))}
