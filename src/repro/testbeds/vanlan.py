"""The synthetic VanLAN testbed.

VanLAN (Section 2.1) consists of eleven basestations deployed across
five buildings on the Microsoft campus in Redmond, bounded by an
828 x 559 m region, and vehicles that "provide a shuttle service around
the town, moving within a speed limit of about 40 Km/h", visiting the
region about ten times a day.

This module rebuilds that environment synthetically:

* eleven BSes clustered on five "buildings" inside the paper's bounding
  box;
* a shuttle loop passing the buildings at 40 km/h with short stops;
* a layered radio model per (trip, BS) pair: log-distance path loss, a
  *static spatial field* (persistent per-location obstruction effects
  that make History-style prediction possible), per-trip temporal
  shadowing, gray periods, and Gilbert-Elliott burst losses.

Its products are the paper's two artifact types: probe traces
(Section 3.1 methodology) and beacon logs, plus a live
:class:`~repro.net.medium.LinkTable` for deployment-style protocol runs.
"""

import numpy as np

from repro.net.channel import SteeredGilbertElliott
from repro.net.medium import LinkTable
from repro.net.mobility import Route, VehicleMotion
from repro.net.propagation import (
    GrayPeriodProcess,
    LinkBank,
    LinkModel,
    LinkStateCache,
    RadioProfile,
    Shadowing,
    SpatialField,
)
from repro.sim.rng import RngRegistry
from repro.testbeds.layout import Deployment
from repro.testbeds.traces import BeaconLog, ProbeTrace

__all__ = ["VEHICLE_ID", "VanLanTestbed", "default_vanlan_deployment"]

#: Node id used for the vehicle in generated traces and simulations.
VEHICLE_ID = 0

#: BS placements: eleven radios across five buildings (id -> (x, y)).
#: The geometry spans the paper's 828 x 559 m bounding box (Figure 1).
_DEFAULT_BS_POSITIONS = {
    1: (140.0, 150.0),   # building A
    2: (185.0, 185.0),   # building A
    3: (420.0, 110.0),   # building B
    4: (470.0, 150.0),   # building B
    5: (690.0, 170.0),   # building C
    6: (740.0, 200.0),   # building C
    7: (720.0, 135.0),   # building C
    8: (600.0, 420.0),   # building D
    9: (650.0, 460.0),   # building D
    10: (240.0, 420.0),  # building E
    11: (290.0, 455.0),  # building E
}

#: Shuttle loop waypoints (metres); passes every building cluster.
_DEFAULT_ROUTE_WAYPOINTS = [
    (40.0, 90.0),
    (400.0, 55.0),
    (640.0, 80.0),
    (790.0, 160.0),
    (780.0, 330.0),
    (660.0, 505.0),
    (430.0, 520.0),
    (180.0, 500.0),
    (55.0, 340.0),
    (40.0, 90.0),
]


def default_vanlan_deployment():
    """The eleven-BS VanLAN deployment used throughout the benchmarks."""
    return Deployment("VanLAN", _DEFAULT_BS_POSITIONS, bounds=(828.0, 559.0))


class VanLanTestbed:
    """Synthetic VanLAN: geometry, radio environment, trace generation.

    Args:
        seed: root seed; fixes the spatial fields and, combined with a
            trip index, every stochastic process of a trip.
        profile: a :class:`~repro.net.propagation.RadioProfile`; the
            default is calibrated so Figure 5/6 statistics land in the
            paper's regime.
        deployment: alternative BS layout (default: the 11-BS layout).
        speed_mps: shuttle cruise speed (default 40 km/h).
        probes_per_second: probe/beacon broadcast rate (paper: 10/s).
    """

    def __init__(self, seed=0, profile=None, interbs_profile=None,
                 deployment=None, speed_mps=11.1, probes_per_second=10):
        self.seed = int(seed)
        self.rngs = RngRegistry(seed)
        # Vehicle-BS: street-level, obstructed propagation.  The
        # shadowing and gray-period parameters are calibrated so the
        # Section 3 phenomenology holds: sharp unpredictable drops even
        # near BSes, bursty losses, and hard-handoff disruptions that
        # macrodiversity can mask (tests/test_testbeds_environments.py
        # checks the burstiness and multi-BS coverage).
        self.profile = profile or RadioProfile(
            path_loss_exponent=3.0,
            decode_mid_dbm=-89.0,
            shadowing_sigma_db=7.0,
            shadowing_tau_s=9.0,
            max_reception=0.85,
            gray_rate_per_s=1.0 / 25.0,
            gray_duration_s=4.0,
            gray_residual_reception=0.02,
        )
        # BS-BS: rooftop omnis with near line of sight; a friendlier
        # exponent so nearby BSes overhear each other (Section 4.1)
        # while distant pairs remain out of range (Section 2.1).
        self.interbs_profile = interbs_profile or RadioProfile(
            path_loss_exponent=2.5,
            decode_mid_dbm=-89.0,
        )
        self.deployment = deployment or default_vanlan_deployment()
        self.speed_mps = float(speed_mps)
        self.probes_per_second = int(probes_per_second)
        # Static per-BS spatial fields: the persistent part of the
        # environment (buildings, trees).  Keyed by the testbed seed
        # only, so every trip and every day shares them.
        # The 1 m cache quantum is 1/70th of the correlation length:
        # the lookup error (< 0.1 dB) is far below the 4 dB field
        # sigma, while consecutive 20 ms link-cache queries of the
        # moving vehicle (~0.2 m apart) mostly coalesce.
        self._spatial = {
            bs: SpatialField(
                sigma_db=4.0,
                correlation_m=70.0,
                rng=self.rngs.fresh("spatial", bs),
                cache_quantum_m=1.0,
            )
            for bs in self.deployment.bs_ids
        }

    def cache_token(self):
        """Identity for content-addressed caching (see repro.store).

        Everything stochastic in a trip is a pure function of this
        identity plus the trip index, so results and memoized physics
        keyed by it are safe to share across processes and runs.
        """
        return ("VanLanTestbed", self.seed, self.speed_mps,
                self.probes_per_second, self.profile,
                self.interbs_profile, self.deployment)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def make_route(self, n_loops=1):
        """The shuttle route: *n_loops* circuits of the campus loop."""
        waypoints = list(_DEFAULT_ROUTE_WAYPOINTS)
        for _ in range(int(n_loops) - 1):
            waypoints.extend(_DEFAULT_ROUTE_WAYPOINTS[1:])
        return Route(waypoints, speed_mps=self.speed_mps,
                     stop_durations={0: 5.0})

    def vehicle_motion(self, n_loops=1, depart_at=0.0):
        return VehicleMotion(self.make_route(n_loops), depart_at=depart_at)

    # ------------------------------------------------------------------
    # Radio links
    # ------------------------------------------------------------------

    def link_model(self, trip, bs_id, vehicle_position):
        """The (slow-fading) link model between a BS and the vehicle.

        Shadowing and gray periods are drawn per (trip, BS): a new trip
        sees a new realization of the time-varying environment, but the
        same spatial field.
        """
        trip_rngs = self.rngs.spawn("trip", trip)
        shadowing = Shadowing(
            sigma_db=self.profile.shadowing_sigma_db,
            tau_s=self.profile.shadowing_tau_s,
            rng=trip_rngs.stream("shadow", bs_id),
        )
        gray = GrayPeriodProcess(
            rate_per_s=self.profile.gray_rate_per_s,
            mean_duration_s=self.profile.gray_duration_s,
            rng=trip_rngs.stream("gray", bs_id),
        )
        return LinkModel(
            profile=self.profile,
            position_a=self.deployment.position_of(bs_id),
            position_b=vehicle_position,
            shadowing=shadowing,
            gray=gray,
            spatial=self._spatial[bs_id],
        )

    def interbs_reception(self, bs_a, bs_b):
        """Static mean reception probability between two BSes."""
        distance = self.deployment.distance(bs_a, bs_b)
        profile = self.interbs_profile
        return profile.reception_prob(profile.mean_rssi(distance))

    # ------------------------------------------------------------------
    # Trace generation (Section 3.1 methodology)
    # ------------------------------------------------------------------

    def generate_probe_trace(self, trip, n_loops=1, rssi_noise_db=1.0,
                             max_seconds=None):
        """Generate the broadcast-probe trace for one trip.

        Every node broadcasts a 500-byte probe every 100 ms; the trace
        records which probes were decoded in each direction and the
        RSSI of decoded BS probes (used as beacons by the policies).
        ``max_seconds`` truncates the trip (smoke tests and quick
        demos); the generated prefix is identical to the full trace's.
        """
        motion = self.vehicle_motion(n_loops)
        duration = motion.route.duration
        if max_seconds is not None:
            duration = min(duration, float(max_seconds))
        slot_dt = 1.0 / self.probes_per_second
        n_slots = int(duration / slot_dt)
        bs_ids = self.deployment.bs_ids
        n_bs = len(bs_ids)

        trip_rngs = self.rngs.spawn("trip", trip)
        up = np.zeros((n_slots, n_bs), dtype=bool)
        down = np.zeros((n_slots, n_bs), dtype=bool)
        rssi = np.full((n_slots, n_bs), np.nan)
        positions = np.zeros((n_slots, 2))

        times = np.arange(n_slots) * slot_dt
        for t_idx, t in enumerate(times):
            positions[t_idx] = motion(t)

        for j, bs in enumerate(bs_ids):
            # quantum 0: exact-time memoization only, so the up and
            # down draws (and the RSSI report) at one slot share a
            # single propagation evaluation without changing anything.
            link = LinkStateCache(
                self.link_model(trip, bs, motion), quantum_s=0.0
            )
            up_proc = SteeredGilbertElliott(
                link.loss_prob, rng=trip_rngs.stream("fast-up", bs)
            )
            down_proc = SteeredGilbertElliott(
                link.loss_prob, rng=trip_rngs.stream("fast-down", bs)
            )
            noise = trip_rngs.stream("rssi-noise", bs)
            for t_idx, t in enumerate(times):
                up[t_idx, j] = not up_proc.is_lost(t)
                received = not down_proc.is_lost(t)
                down[t_idx, j] = received
                if received:
                    rssi[t_idx, j] = link.rssi(t) + noise.normal(
                        0.0, rssi_noise_db
                    )
        return ProbeTrace(bs_ids, slot_dt, up, down, rssi, positions)

    def generate_day(self, day, n_trips=10, n_loops=1):
        """Generate the probe traces of one day of shuttle service.

        Trips are indexed globally as ``day * 1000 + trip`` so distinct
        days never share temporal randomness.
        """
        return [
            self.generate_probe_trace(day * 1000 + trip, n_loops=n_loops)
            for trip in range(n_trips)
        ]

    def beacon_log_from_trace(self, trace):
        """Reduce a probe trace to a DieselNet-style beacon log.

        BS probes double as beacons (everything is broadcast), so the
        per-second count of decoded downstream probes is the beacon
        count.
        """
        sps = trace.slots_per_second
        n_secs = trace.n_slots // sps
        down = trace.down[: n_secs * sps].reshape(n_secs, sps, trace.n_bs)
        heard = down.sum(axis=1).astype(int)
        return BeaconLog(trace.bs_ids, heard, expected=sps)

    # ------------------------------------------------------------------
    # Live link table (deployment-style protocol runs)
    # ------------------------------------------------------------------

    def build_link_bank(self, trip, vehicle_position, bs_ids=None,
                        prefill_s=None):
        """The banked vehicle-BS propagation stack of one trip.

        The bank is a pure function of ``(testbed seed, trip)``: every
        bucket value is sampled at its bucket-centre instant, so
        prefilled and lazily filled banks agree bit for bit.

        Args:
            trip: trip index (fixes shadowing/gray realizations).
            vehicle_position: callable ``t -> (x, y)``.
            bs_ids: participating BSes (default: the full deployment).
            prefill_s: when set, prefill the bank's buckets up to this
                simulated horizon at build time.
        """
        bs_ids = list(bs_ids if bs_ids is not None
                      else self.deployment.bs_ids)
        links = [self.link_model(trip, bs, vehicle_position)
                 for bs in bs_ids]
        bank = LinkBank(links)
        if prefill_s is not None:
            bank.prefill(prefill_s)
        return bank

    def build_link_table(self, trip, vehicle_position, bs_ids=None,
                         vehicle_id=VEHICLE_ID, prefill_s=None):
        """Link table for a packet-level protocol run of one trip.

        Vehicle-BS links use the full layered radio model with
        independent burst processes per direction; BS-BS links (used
        for ack overhearing) use static distance-based means with
        burstiness.  All vehicle links read one
        :class:`~repro.net.propagation.LinkBank` (see
        :meth:`build_link_bank`) through per-link
        :class:`~repro.net.propagation.LinkStateCache` members, so the
        N per-link misses of a time quantum collapse into one
        vectorized pass.

        Args:
            prefill_s: optional prefill horizon of the built bank.

        The built bank is exposed as ``table.link_bank`` so harnesses
        can report prefill cost separately from run cost.
        """
        bs_ids = list(bs_ids if bs_ids is not None else self.deployment.bs_ids)
        trip_rngs = self.rngs.spawn("trip", trip)
        table = LinkTable()
        bank = self.build_link_bank(trip, vehicle_position, bs_ids=bs_ids,
                                    prefill_s=prefill_s)
        caches = bank.wrap()
        table.link_bank = bank
        for bs, link in zip(bs_ids, caches):
            table.set_link(vehicle_id, bs, SteeredGilbertElliott(
                link.loss_prob, rng=trip_rngs.stream("live-up", bs)))
            table.set_link(bs, vehicle_id, SteeredGilbertElliott(
                link.loss_prob, rng=trip_rngs.stream("live-down", bs)))
        for a in bs_ids:
            for b in bs_ids:
                if a >= b:
                    continue
                loss = 1.0 - self.interbs_reception(a, b)
                table.set_link(a, b, SteeredGilbertElliott(
                    loss, rng=trip_rngs.stream("live-bsbs", a, b)))
                table.set_link(b, a, SteeredGilbertElliott(
                    loss, rng=trip_rngs.stream("live-bsbs", b, a)))
        return table
