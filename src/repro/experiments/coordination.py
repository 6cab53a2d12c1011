"""Coordination-effectiveness experiments: Tables 1 and 2, Section 5.5.2.

Table 1 reports detailed per-direction statistics of ViFi's behaviour
under the VanLAN TCP workload, read from Figure 9's ViFi runs.  Table
2 compares ViFi's relaying formulation against the three ablations
(each violating one guideline) on DieselNet Channel 1, downstream, over
the beacon log Figures 10 and 11 memoize.  Section 5.5.2 probes the
formulation's limits: many auxiliaries, or symmetric auxiliaries,
inflate the *variance* of the number of relays per packet.
"""

import numpy as np

from repro.apps.tcp import TcpWorkload
from repro.core.protocol import ViFiConfig
from repro.core.relaying import RelayContext, make_strategy
from repro.experiments.common import (
    dieselnet_protocol,
    init_worker_state,
    memoized_beacon_log,
    require_complete,
    run_protocol_app,
    run_trips,
    worker_state,
)
from repro.experiments.tcpbench import _tcp_vanlan_task, standard_tcp_variants
from repro.net.packet import Direction
from repro.sim.rng import RngRegistry

__all__ = [
    "coordination_table",
    "formulation_comparison",
    "relay_count_spread",
]


def coordination_table(testbed, trips, seed=0):
    """Table 1: coordination statistics from the VanLAN TCP workload.

    Returns:
        dict direction name -> :class:`~repro.core.stats.CoordinationReport`
        averaged over the trips' reports, weighted by their source
        transmissions.
    """
    tasks = [("ViFi", trip) for trip in trips]
    cells = require_complete(run_trips(
        _tcp_vanlan_task, tasks,
        initializer=init_worker_state,
        initargs=(testbed, standard_tcp_variants(), seed),
    ), tasks)
    return {
        direction: _average_reports(
            [cell["coordination"][direction] for cell in cells])
        for direction in ("upstream", "downstream")
    }


def _average_reports(reports):
    """Average CoordinationReports, weighting by source-tx counts."""
    if not reports:
        raise ValueError("no reports to average")
    if len(reports) == 1:
        return reports[0]
    total_tx = sum(r.n_source_tx for r in reports) or 1
    out = reports[0]
    for fieldname in (
        "median_aux", "mean_aux_heard", "mean_aux_heard_no_ack",
        "src_tx_success_rate", "false_positive_rate",
        "relays_per_false_positive", "src_tx_failure_rate",
        "failed_overheard_rate", "false_negative_rate",
        "relay_delivery_rate",
    ):
        value = sum(
            getattr(r, fieldname) * r.n_source_tx for r in reports
        ) / total_tx
        setattr(out, fieldname, value)
    out.n_source_tx = total_tx
    return out


def _formulation_task(task):
    """One (strategy, day) cell of Table 2 (picklable summary)."""
    strategy, day = task
    testbed, seed = worker_state()
    config = ViFiConfig(relay_strategy=strategy)
    log = memoized_beacon_log(testbed, day)
    rngs = RngRegistry(seed).spawn("table2", strategy, day)
    sim, duration = dieselnet_protocol(log, rngs, config=config,
                                       seed=seed + day)
    run_protocol_app(sim, duration, TcpWorkload)
    report = sim.stats.coordination_report(Direction.DOWNSTREAM)
    return (report.false_positive_rate, report.false_negative_rate,
            report.n_source_tx)


def formulation_comparison(testbed, days=(0,), seed=0, store=None):
    """Table 2: ViFi vs NotG1/NotG2/NotG3 on DieselNet Ch. 1 downstream.

    The (strategy, day) grid fans out over
    :func:`~repro.experiments.common.run_trips`, whose *store* option
    this passes on.

    Returns:
        dict strategy name -> {"false_positives", "false_negatives"}.
    """
    strategies = ("vifi", "not-g1", "not-g2", "not-g3")
    days = list(days)
    tasks = [(strategy, day) for strategy in strategies for day in days]
    per_task = iter(require_complete(run_trips(
        _formulation_task, tasks, store=store,
        initializer=init_worker_state, initargs=(testbed, seed),
    ), tasks))
    results = {}
    for strategy in strategies:
        fps, fns, weights = [], [], []
        for _ in days:
            fp, fn, weight = next(per_task)
            fps.append(fp)
            fns.append(fn)
            weights.append(weight)
        total = sum(weights) or 1
        results[strategy] = {
            "false_positives": sum(f * w for f, w in zip(fps, weights))
            / total,
            "false_negatives": sum(f * w for f, w in zip(fns, weights))
            / total,
        }
    return results


def relay_count_spread(n_aux, p_hear_src, p_to_dst, p_src_dst=0.5,
                       n_packets=2000, seed=0, strategy="vifi"):
    """Section 5.5.2: distribution of relays/packet on a synthetic topology.

    Builds an idealized scene with ``n_aux`` auxiliaries whose
    connectivity is given directly (no protocol machinery): every
    packet, each auxiliary independently hears the source with
    ``p_hear_src``, hears the destination's ack with probability
    ``p_src_dst * p_to_dst`` (ack exists only if dst got the packet),
    and contenders apply the strategy's relay probability.

    Args:
        n_aux: number of auxiliary BSes.
        p_hear_src: per-aux probability of overhearing the source; a
            scalar makes auxiliaries symmetric (the pathological case),
            a sequence makes them asymmetric.
        p_to_dst: per-aux delivery probability to the destination
            (scalar or sequence).
        p_src_dst: source-to-destination delivery probability.

    Returns:
        ``(mean, variance, histogram)`` of the number of relays per
        packet.
    """
    rng = RngRegistry(seed).stream("relay-count-spread")
    hear = np.broadcast_to(np.asarray(p_hear_src, dtype=float),
                           (n_aux,)).copy()
    to_dst = np.broadcast_to(np.asarray(p_to_dst, dtype=float),
                             (n_aux,)).copy()
    aux_ids = tuple(range(1, n_aux + 1))
    src, dst = 100, 200
    table = {}
    for i, aux in enumerate(aux_ids):
        table[(src, aux)] = hear[i]
        table[(aux, dst)] = to_dst[i]
        table[(dst, aux)] = to_dst[i]
    table[(src, dst)] = p_src_dst
    table[(dst, src)] = p_src_dst

    def p(a, b):
        if a == b:
            return 1.0
        return table.get((a, b), 0.0)

    strat = make_strategy(strategy)
    relay_counts = np.zeros(n_packets, dtype=int)
    for k in range(n_packets):
        dst_got = rng.random() < p_src_dst
        count = 0
        for i, aux in enumerate(aux_ids):
            heard = rng.random() < hear[i]
            if not heard:
                continue
            ack_heard = dst_got and (rng.random() < to_dst[i])
            if ack_heard:
                continue
            r = strat.relay_probability(RelayContext(
                self_id=aux, aux_ids=aux_ids, src=src, dst=dst, p=p,
            ))
            if rng.random() < r:
                count += 1
        relay_counts[k] = count
    hist = np.bincount(relay_counts,
                       minlength=min(n_aux, 10) + 1)
    return (
        float(relay_counts.mean()),
        float(relay_counts.var()),
        hist,
    )
