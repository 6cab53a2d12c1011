"""The Section 3 measurement study: Figures 2-6.

These experiments are trace-driven: VanLAN probe traces feed the six
handoff policies; beacon logs feed the diversity CDFs; dedicated probe
schedules feed the burstiness analyses.
"""

import numpy as np

from repro.analysis.aggregate import packets_per_day_by_density
from repro.analysis.burstiness import (
    conditional_loss_curve,
    overall_loss_probability,
)
from repro.analysis.conditional import two_bs_conditionals
from repro.handoff.policies import (
    AllBsesPolicy,
    BestBsPolicy,
    BrrPolicy,
    HistoryPolicy,
    RssiPolicy,
    StickyPolicy,
)
from repro.net.channel import SteeredGilbertElliott
from repro.sim.rng import RngRegistry

__all__ = [
    "aggregate_by_density",
    "burst_loss_experiment",
    "diversity_cdfs",
    "policy_factories",
    "two_bs_experiment",
]


def policy_factories():
    """Policy factories keyed by paper name (History needs training)."""
    return {
        "RSSI": lambda training: RssiPolicy(),
        "BRR": lambda training: BrrPolicy(),
        "Sticky": lambda training: StickyPolicy(),
        "History": _history_factory,
        "BestBS": lambda training: BestBsPolicy(),
        "AllBSes": lambda training: AllBsesPolicy(),
    }


def _history_factory(training):
    policy = HistoryPolicy()
    if training:
        policy.train(training)
    return policy


def aggregate_by_density(testbed, day=0, n_trips=4, subset_sizes=(2, 5, 8, 11),
                         trials_per_size=4, seed=0):
    """Figure 2: packets/day per policy vs number of BSes.

    Returns:
        dict policy_name -> {size: (mean_packets, ci_half_width)}.
    """
    day_traces = testbed.generate_day(day, n_trips=n_trips)
    training = testbed.generate_day(day + 1, n_trips=n_trips)
    rngs = RngRegistry(seed).spawn("fig2-density")
    results = {}
    for name, factory in policy_factories().items():
        results[name] = packets_per_day_by_density(
            day_traces, factory, subset_sizes, trials_per_size,
            rng=rngs.stream(name),
            training_traces=training if name == "History" else None,
        )
    return results


def diversity_cdfs(beacon_logs, min_ratio=None):
    """Figure 5: visible-BS CDF pooled over several beacon logs.

    Returns:
        ``(xs, ys, histogram)``.
    """
    counts = np.concatenate([
        log.visible_counts(min_ratio) for log in beacon_logs
    ])
    from repro.analysis.cdf import empirical_cdf
    xs, ys = empirical_cdf(counts)
    top = max(log.n_bs for log in beacon_logs)
    hist = np.bincount(counts, minlength=top + 1)[: top + 1]
    return xs, ys, hist


def burst_loss_experiment(testbed, bs_id, trip=0, probe_interval_s=0.01,
                          lags=(1, 2, 5, 10, 50, 100, 500, 1000, 2000),
                          duration_s=None, coverage_floor=0.2):
    """Figure 6(a): single-BS 10 ms probes, conditional loss curve.

    The analysis is restricted to the portion of the trip where the
    link has coverage (mean reception above *coverage_floor*), as in
    the paper's experiment where the sending BS is in range: with the
    out-of-range tail included, the unconditional loss probability is
    dominated by dead air and the burst excess degenerates.

    Returns:
        ``(curve, overall)`` — dict lag -> P(loss i+k | loss i) and the
        unconditional loss probability within the coverage window.
    """
    motion = testbed.vehicle_motion()
    duration = duration_s or motion.route.duration
    link = testbed.link_model(trip, bs_id, motion)
    rng = testbed.rngs.spawn("fig6a", trip).stream("chain", bs_id)
    process = SteeredGilbertElliott(link.loss_prob, rng=rng)
    n = int(duration / probe_interval_s)
    losses = np.zeros(n, dtype=bool)
    covered = np.zeros(n, dtype=bool)
    for i in range(n):
        t = i * probe_interval_s
        losses[i] = process.is_lost(t)
        covered[i] = link.reception_prob(t) > coverage_floor
    if covered.sum() >= 1000:
        losses = losses[covered]
    return (
        conditional_loss_curve(losses, lags),
        overall_loss_probability(losses),
    )


def two_bs_experiment(testbed, bs_a, bs_b, trip=0, probe_interval_s=0.02,
                      duration_s=None, window_s=None):
    """Figure 6(b): two BSes alternate 20 ms packets; conditionals.

    To reproduce the paper's setting (a chosen pair with reasonable
    links), only the portion of the trip where both BSes have mean
    reception above 0.2 is analysed unless ``window_s`` overrides.

    Returns:
        The six-probability dict of
        :func:`repro.analysis.conditional.two_bs_conditionals`.
    """
    motion = testbed.vehicle_motion()
    duration = duration_s or motion.route.duration
    links = {}
    processes = {}
    for bs in (bs_a, bs_b):
        links[bs] = testbed.link_model(trip, bs, motion)
        rng = testbed.rngs.spawn("fig6b", trip).stream("chain", bs)
        processes[bs] = SteeredGilbertElliott(links[bs].loss_prob, rng=rng)
    n = int(duration / probe_interval_s)
    recv = {bs: np.zeros(n, dtype=bool) for bs in (bs_a, bs_b)}
    good = np.zeros(n, dtype=bool)
    for i in range(n):
        t = i * probe_interval_s
        for bs in (bs_a, bs_b):
            recv[bs][i] = not processes[bs].is_lost(t)
        good[i] = (links[bs_a].reception_prob(t) > 0.2
                   and links[bs_b].reception_prob(t) > 0.2)
    if window_s is None:
        mask = good
    else:
        mask = np.zeros(n, dtype=bool)
        mask[: int(window_s / probe_interval_s)] = True
    if mask.sum() < 100:
        mask = np.ones(n, dtype=bool)
    return two_bs_conditionals(recv[bs_a][mask], recv[bs_b][mask])
