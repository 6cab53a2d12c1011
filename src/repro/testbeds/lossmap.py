"""Beacon logs to link loss rates: the Section 5.1 trace-driven mapping.

The paper's trace-driven simulations instantiate loss rates from beacon
logs as follows:

* "The beacon loss ratio from a BS to the vehicle in each one-second
  interval is used as the packet loss rate from that BS to the vehicle
  and from the vehicle to the BS" — symmetric vehicle links.
* "For inter-BS loss rates, we assume that BS pairs that are never
  simultaneously within the range of a bus cannot reach one another.
  For other pairs, we assign loss ratios between 0 and 1 uniformly at
  random."

This module reproduces that mapping, with an optional burstiness mode
(:class:`~repro.net.channel.SteeredGilbertElliott` steered by the
per-second series) for studies of the i.i.d.-within-a-second assumption
the paper acknowledges.
"""

from repro.net.channel import (
    BernoulliLoss,
    RateSeries,
    SteeredGilbertElliott,
    TraceDrivenLoss,
)
from repro.net.medium import LinkTable

__all__ = [
    "build_link_table_from_log",
    "interbs_loss_rates",
    "loss_rate_series",
]


def loss_rate_series(log, bs_id):
    """Per-second loss-rate series for one BS from a beacon log."""
    column = log.bs_ids.index(bs_id)
    return log.loss_ratio()[:, column]


def interbs_loss_rates(log, rng, min_heard=1):
    """Inter-BS loss rates per the paper's rule.

    Pairs never co-visible from the vehicle get loss 1.0 (unreachable);
    other pairs draw a uniform loss in [0, 1].  The matrix is symmetric.

    Returns:
        dict mapping ordered pair ``(a, b)`` to loss rate.
    """
    covis = log.covisibility(min_heard=min_heard)
    rates = {}
    ids = log.bs_ids
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if i >= j:
                continue
            loss = rng.uniform(0.0, 1.0) if covis[i, j] else 1.0
            rates[(a, b)] = loss
            rates[(b, a)] = loss
    return rates


def build_link_table_from_log(log, rngs, vehicle_id=0, bursty=False,
                              out_of_range_rate=1.0):
    """Build the packet-level :class:`LinkTable` from a beacon log.

    Args:
        log: a :class:`~repro.testbeds.traces.BeaconLog`.
        rngs: an :class:`~repro.sim.rng.RngRegistry` supplying the
            per-link packet-draw streams and the inter-BS uniform draws.
        vehicle_id: node id of the vehicle.
        bursty: when False (default, the paper's literal methodology)
            vehicle links are i.i.d. within each second; when True the
            per-second series steers a Gilbert-Elliott chain instead.
            The series is passed as a
            :class:`~repro.net.channel.RateSeries`, which reports when
            its rate next changes, so the chain's ``loss_eps_window``
            reaches to the next trace second (or state flip) rather
            than ending at the query time.
        out_of_range_rate: loss applied outside the trace span.

    Returns:
        A :class:`~repro.net.medium.LinkTable` covering vehicle<->BS
        links (independent streams per direction, identical rate
        series) and BS<->BS links per the covisibility rule.
    """
    table = LinkTable()
    for bs in log.bs_ids:
        rates = loss_rate_series(log, bs)
        if bursty:
            # A contiguous copy: the column view would keep the whole
            # loss-ratio matrix alive.  Both directions share it.
            series = RateSeries(rates.copy(),
                                out_of_range_rate=out_of_range_rate)
        for direction, name in ((vehicle_id, "up"), (bs, "down")):
            rng = rngs.stream("trace-link", bs, name)
            if bursty:
                process = SteeredGilbertElliott(series, rng=rng)
            else:
                process = TraceDrivenLoss(
                    rates, rng=rng, out_of_range_rate=out_of_range_rate
                )
            if name == "up":
                table.set_link(vehicle_id, bs, process)
            else:
                table.set_link(bs, vehicle_id, process)
    pair_rates = interbs_loss_rates(log, rngs.stream("interbs-draws"))
    for (a, b), loss in pair_rates.items():
        table.set_link(a, b, BernoulliLoss(
            min(loss, 1.0), rngs.stream("trace-bsbs", a, b)))
    return table
