"""Deterministic fault injection for protocol runs.

ViFi's value proposition is masking disruption, yet the nominal
simulation only ever exercises a healthy deployment: basestations never
go dark, the wired backplane never partitions, and beacons are lost
only by the channel model.  This module injects infrastructure faults
— the regime "Wi-Fi Assist" (PAPERS.md) identifies as dominating real
vehicular WiFi sessions — without perturbing a single draw of the
nominal stochastic processes:

* every fault arrival is drawn from its **own** named RNG namespace
  (``RngRegistry(seed).spawn("faults")``), disjoint by construction
  from the ``"protocol"`` namespace the medium, relay coins and beacon
  phases use, so a faulted run and a nominal run share the identical
  channel/protocol realization;
* injection happens purely through **flag flips** scheduled as
  fire-and-forget simulator events — toggling a flag consumes no
  randomness, so two runs with the same ``(config, seed)`` are
  bit-for-bit identical;
* with ``faults=None`` (the default everywhere) nothing is built,
  scheduled, or checked beyond one predictable attribute read, keeping
  the committed realization anchor bitwise.

Fault kinds
-----------

``bs-outage``
    A basestation's radio dies for an interval: it stops beaconing,
    receiving, acking and transmitting over the air.  Its *wired* side
    stays alive — an upstream relay arriving over the backplane is
    still forwarded to the gateway (radio dead, ethernet fine), which
    is exactly the partial-failure regime ViFi's source-retransmission
    fallback has to mask.

``partition``
    A basestation falls off the wired backplane: relays, salvage
    requests and salvage payloads to or from it are silently dropped
    (and counted).  The protocol's recovery path is end-to-end
    retransmission by the source.

``latency-spike``
    The backplane's one-way latency is multiplied for an interval
    (congested or rerouted wired path).

``beacon-burst``
    A correlated burst: every node's beacon *emissions* are suppressed
    for the interval (antenna-level interference).  Due chains keep
    advancing — and keep consuming their jitter draws — so the nominal
    beacon schedule after the burst is unchanged.

``vehicle-reset``
    The vehicle's radio resets (driver power-cycle, firmware watchdog):
    same gating as a BS outage, applied to the vehicle node.

Schedules are non-overlapping per (kind, target) by construction: the
next arrival is drawn from the end of the previous fault, so flag flips
never need reference counting.
"""

from collections import Counter
from dataclasses import dataclass, replace

from repro.sim.rng import RngRegistry

__all__ = ["FaultConfig", "FaultEvent", "FaultPlane", "FaultSchedule"]


@dataclass(frozen=True)
class FaultConfig:
    """Fault intensities: arrival rates (events/minute/target) + durations.

    A rate of 0 disables that fault kind; the default config disables
    everything.  Rates are per target (per BS for outages/partitions,
    global for latency spikes and beacon bursts), with mean
    exponentially-distributed gaps of ``60 / rate`` seconds between a
    fault's end and the next arrival.
    """

    bs_outage_rate: float = 0.0
    bs_outage_duration_s: float = 10.0
    partition_rate: float = 0.0
    partition_duration_s: float = 10.0
    latency_spike_rate: float = 0.0
    latency_spike_duration_s: float = 5.0
    latency_spike_multiplier: float = 20.0
    beacon_burst_rate: float = 0.0
    beacon_burst_duration_s: float = 1.0
    vehicle_reset_rate: float = 0.0
    vehicle_reset_duration_s: float = 2.0

    def scaled(self, intensity):
        """This config with every rate multiplied by *intensity*.

        Durations are untouched: intensity sweeps vary how *often*
        faults strike, which keeps the per-fault recovery dynamics
        comparable across sweep points.
        """
        factor = float(intensity)
        if factor < 0.0:
            raise ValueError("intensity must be non-negative")
        return replace(
            self,
            bs_outage_rate=self.bs_outage_rate * factor,
            partition_rate=self.partition_rate * factor,
            latency_spike_rate=self.latency_spike_rate * factor,
            beacon_burst_rate=self.beacon_burst_rate * factor,
            vehicle_reset_rate=self.vehicle_reset_rate * factor,
        )

    def any_enabled(self):
        return any((
            self.bs_outage_rate, self.partition_rate,
            self.latency_spike_rate, self.beacon_burst_rate,
            self.vehicle_reset_rate,
        ))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``[start, end)`` against one target."""

    kind: str
    target: object  # BS id, vehicle id, or None for global faults
    start: float
    end: float


class FaultSchedule:
    """A deterministic list of fault events for one protocol run.

    Args:
        config: the :class:`FaultConfig` intensities.
        duration_s: schedule horizon (faults starting later are never
            drawn).
        bs_ids: basestations eligible for outages and partitions.
        vehicle_id: the vehicle node id (for resets).
        seed: root seed; the schedule draws from
            ``RngRegistry(seed).spawn("faults")`` — a namespace no
            nominal component touches, so the same *seed* drives both
            the usual protocol streams and an independent fault plan.

    The same ``(config, duration_s, bs_ids, vehicle_id, seed)`` always
    produces the identical event list.
    """

    def __init__(self, config, duration_s, bs_ids, vehicle_id=0, seed=0):
        self.config = config
        self.duration_s = float(duration_s)
        self.bs_ids = tuple(bs_ids)
        self.vehicle_id = vehicle_id
        self.seed = int(seed)
        rngs = RngRegistry(self.seed).spawn("faults")
        events = []
        for bs in self.bs_ids:
            events += self._draw(
                rngs.stream("bs-outage", bs), "bs-outage", bs,
                config.bs_outage_rate, config.bs_outage_duration_s,
            )
            events += self._draw(
                rngs.stream("partition", bs), "partition", bs,
                config.partition_rate, config.partition_duration_s,
            )
        events += self._draw(
            rngs.stream("latency-spike"), "latency-spike", None,
            config.latency_spike_rate, config.latency_spike_duration_s,
        )
        events += self._draw(
            rngs.stream("beacon-burst"), "beacon-burst", None,
            config.beacon_burst_rate, config.beacon_burst_duration_s,
        )
        events += self._draw(
            rngs.stream("vehicle-reset"), "vehicle-reset", vehicle_id,
            config.vehicle_reset_rate, config.vehicle_reset_duration_s,
        )
        # Stable total order (start, kind, target-repr) so installation
        # and any same-instant simulator ties are deterministic.
        events.sort(key=lambda e: (e.start, e.kind, repr(e.target)))
        self.events = tuple(events)

    def _draw(self, rng, kind, target, rate, duration):
        """Poisson arrivals of fixed-length faults, capped at horizon."""
        if rate <= 0.0 or duration <= 0.0:
            return []
        mean_gap = 60.0 / float(rate)
        horizon = self.duration_s
        events = []
        t = float(rng.exponential(mean_gap))
        while t < horizon:
            end = min(t + float(duration), horizon)
            events.append(FaultEvent(kind, target, t, end))
            t = end + float(rng.exponential(mean_gap))
        return events

    def install(self, vifi):
        """Attach this schedule to a built :class:`ViFiSimulation`.

        Returns the live :class:`FaultPlane`.  Called by
        ``ViFiSimulation(..., faults=schedule)``; installing schedules
        only flag-flip events, never an RNG consumer.
        """
        plane = FaultPlane(self, vifi)
        plane.arm()
        return plane


class FaultPlane:
    """Runtime side of a schedule: flips flags, counts injections.

    The plane is what nodes consult (via their ``faults`` attribute)
    for the global beacon-suppression flag, and what experiments read
    back for per-kind injection counts.
    """

    def __init__(self, schedule, vifi):
        self.schedule = schedule
        self._vifi = vifi
        self.beacons_suppressed = False
        self.injected = Counter()
        self.active = set()

    def arm(self):
        sim = self._vifi.sim
        for node in self._all_nodes():
            node.faults = self
        slotter = getattr(self._vifi.ctx, "beacon_slotter", None)
        if slotter is not None:
            slotter.faults = self
        for event in self.schedule.events:
            sim.schedule_fire_at(event.start, self._begin, event)
            sim.schedule_fire_at(event.end, self._end, event)

    def _all_nodes(self):
        yield self._vifi.vehicle
        yield from self._vifi.bs_nodes.values()

    # -- flag flips (no randomness consumed) ---------------------------

    def _begin(self, event):
        kind = event.kind
        vifi = self._vifi
        self.injected[kind] += 1
        self.active.add((kind, event.target))
        if kind == "bs-outage":
            node = vifi.bs_nodes.get(event.target)
            if node is not None:
                node.radio_down = True
        elif kind == "vehicle-reset":
            vifi.vehicle.radio_down = True
        elif kind == "partition":
            vifi.backplane.partition(event.target)
        elif kind == "latency-spike":
            vifi.backplane.latency_multiplier = (
                self.schedule.config.latency_spike_multiplier
            )
        elif kind == "beacon-burst":
            self.beacons_suppressed = True

    def _end(self, event):
        kind = event.kind
        vifi = self._vifi
        self.active.discard((kind, event.target))
        if kind == "bs-outage":
            node = vifi.bs_nodes.get(event.target)
            if node is not None:
                node.radio_down = False
                # The retransmit timer may have fired into the outage
                # and gone unarmed; a recovery pump restarts service
                # without waiting for the next enqueue.
                node.downstream.pump()
        elif kind == "vehicle-reset":
            vifi.vehicle.radio_down = False
            vifi.vehicle.upstream.pump()
        elif kind == "partition":
            vifi.backplane.heal(event.target)
        elif kind == "latency-spike":
            vifi.backplane.latency_multiplier = 1.0
        elif kind == "beacon-burst":
            self.beacons_suppressed = False
