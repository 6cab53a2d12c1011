"""The Section 3 measurement study: Figures 2-6.

These experiments are trace-driven: VanLAN probe traces feed the six
handoff policies; beacon logs feed the diversity CDFs; dedicated probe
schedules feed the burstiness analyses of Figure 6, which evaluate the
trip's :class:`~repro.net.propagation.LinkBank` at every probe instant
in one call and steer each burst chain with those loss probabilities
(:func:`~repro.net.channel.steered_losses`).
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
from repro.net.channel import steered_losses
from repro.sim.rng import RngRegistry

__all__ = [
    "aggregate_by_density",
    "burst_loss_experiment",
    "diversity_cdfs",
    "policy_factories",
    "two_bs_experiment",
]

#: Probe spacing (s) of Figure 6(a)'s single-BS probes and Figure
#: 6(b)'s alternating two-BS probes, as the paper states them.
BURST_PROBE_S = 0.01
TWO_BS_PROBE_S = 0.02
#: Mean reception above which Figure 6's analyses count a link as in
#: coverage: an engineering choice.
COVERAGE_FLOOR = 0.2


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


def burst_loss_experiment(testbed, bs_id, trip=0,
                          lags=(1, 2, 5, 10, 50, 100, 500, 1000, 2000),
                          duration_s=None):
    """Figure 6(a): single-BS 10 ms probes, conditional loss curve.

    The analysis is restricted to the portion of the trip where the
    link has coverage (mean reception above :data:`COVERAGE_FLOOR`),
    as in the paper's experiment where the sending BS is in range: with
    the out-of-range tail included, the unconditional loss probability
    is dominated by dead air and the burst excess degenerates.

    Returns:
        ``(curve, overall)`` — dict lag -> P(loss i+k | loss i) and the
        unconditional loss probability within the coverage window.
    """
    times, prob = _probe_grid(testbed, (bs_id,), trip, BURST_PROBE_S,
                              duration_s)
    rng = testbed.rngs.spawn("fig6a", trip).stream("chain", bs_id)
    losses = steered_losses(times, 1.0 - prob[0], rng)
    covered = prob[0] > COVERAGE_FLOOR
    if covered.sum() >= 1000:
        losses = losses[covered]
    return (
        conditional_loss_curve(losses, lags),
        overall_loss_probability(losses),
    )


def two_bs_experiment(testbed, bs_a, bs_b, trip=0, duration_s=None):
    """Figure 6(b): two BSes alternate 20 ms packets; conditionals.

    To reproduce the paper's setting (a chosen pair with reasonable
    links), only the portion of the trip where both BSes have mean
    reception above :data:`COVERAGE_FLOOR` is analysed, or the whole
    trip if that portion holds fewer than 100 probes.

    Returns:
        The six-probability dict of
        :func:`repro.analysis.conditional.two_bs_conditionals`.
    """
    times, prob = _probe_grid(testbed, (bs_a, bs_b), trip,
                              TWO_BS_PROBE_S, duration_s)
    recv = {}
    for row, bs in enumerate((bs_a, bs_b)):
        rng = testbed.rngs.spawn("fig6b", trip).stream("chain", bs)
        recv[bs] = ~steered_losses(times, 1.0 - prob[row], rng)
    mask = (prob > COVERAGE_FLOOR).all(axis=0)
    if mask.sum() < 100:
        mask = np.ones(len(times), dtype=bool)
    return two_bs_conditionals(recv[bs_a][mask], recv[bs_b][mask])


def _probe_grid(testbed, bs_ids, trip, probe_interval_s, duration_s):
    """The probe instants of one trip and each BS's reception
    probability at them, one row per BS."""
    motion = testbed.vehicle_motion()
    duration = duration_s or motion.duration
    times = np.arange(int(duration / probe_interval_s)) * probe_interval_s
    bank = testbed.build_link_bank(trip, motion, bs_ids=bs_ids)
    return times, bank.evaluate(times)[1]
