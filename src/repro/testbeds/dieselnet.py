"""The synthetic DieselNet testbed.

DieselNet (Section 2.2) is a bus testbed in Amherst, MA.  The paper
profiles two 802.11 channels for three days each: the instrumented bus
logs every beacon heard from nearby basestations, and the analysis is
restricted to BSes in the core of town that are visible on all three
days — 10 BSes on Channel 1 and 14 on Channel 6, roughly half belonging
to the town mesh and half to shops.

We regenerate that artifact: a town-core street grid, BSes split
between a planned mesh (spread out) and shop clusters (along the main
street), bus routes crossing the core, and per-second beacon logs
produced by the same layered radio model as VanLAN.  The output is a
:class:`~repro.testbeds.traces.BeaconLog` per profiling day, which the
trace-driven pipeline (:mod:`repro.testbeds.lossmap`) turns into link
loss rates exactly as Section 5.1 prescribes.
"""

import numpy as np

from repro.net.mobility import Route, VehicleMotion
from repro.net.propagation import (
    GrayPeriodProcess,
    LinkModel,
    RadioProfile,
    Shadowing,
    SpatialField,
)
from repro.sim.rng import RngRegistry
from repro.testbeds.layout import Deployment
from repro.testbeds.traces import BeaconLog
from repro.testbeds.vanlan import VEHICLE_ID

__all__ = ["DieselNetTestbed", "dieselnet_deployment"]

#: Town-core bounds, metres.
_BOUNDS = (900.0, 700.0)

#: Channel 1: 10 BSes (5 mesh spread over the core + 5 shops downtown).
_CH1_POSITIONS = {
    1: (150.0, 180.0),   # mesh
    2: (420.0, 160.0),   # mesh
    3: (700.0, 200.0),   # mesh
    4: (300.0, 420.0),   # mesh
    5: (620.0, 470.0),   # mesh
    6: (380.0, 300.0),   # shop (main street)
    7: (430.0, 310.0),   # shop
    8: (490.0, 295.0),   # shop
    9: (545.0, 305.0),   # shop
    10: (600.0, 290.0),  # shop
}

#: Channel 6: 14 BSes (7 mesh + 7 shops).
_CH6_POSITIONS = {
    1: (120.0, 150.0),   # mesh
    2: (350.0, 130.0),   # mesh
    3: (610.0, 150.0),   # mesh
    4: (820.0, 250.0),   # mesh
    5: (180.0, 430.0),   # mesh
    6: (450.0, 520.0),   # mesh
    7: (720.0, 480.0),   # mesh
    8: (330.0, 290.0),   # shop (main street)
    9: (385.0, 305.0),   # shop
    10: (440.0, 290.0),  # shop
    11: (500.0, 310.0),  # shop
    12: (560.0, 295.0),  # shop
    13: (615.0, 305.0),  # shop
    14: (665.0, 290.0),  # shop
}

#: Bus tour through the core: main street out, side streets back.
_BUS_WAYPOINTS = [
    (30.0, 300.0),
    (250.0, 295.0),
    (500.0, 305.0),
    (750.0, 295.0),
    (870.0, 300.0),
    (860.0, 500.0),
    (600.0, 520.0),
    (300.0, 510.0),
    (120.0, 480.0),
    (60.0, 320.0),
    (150.0, 150.0),
    (450.0, 120.0),
    (760.0, 160.0),
    (870.0, 300.0),
]


def dieselnet_deployment(channel):
    """The core-of-town deployment for a profiling channel (1 or 6)."""
    if channel == 1:
        return Deployment("DieselNet-Ch1", _CH1_POSITIONS, _BOUNDS)
    if channel == 6:
        return Deployment("DieselNet-Ch6", _CH6_POSITIONS, _BOUNDS)
    raise ValueError(f"DieselNet was profiled on channels 1 and 6, "
                     f"not {channel}")


class DieselNetTestbed:
    """Synthetic DieselNet: bus tours and per-second beacon logs.

    Args:
        channel: 1 or 6 (selects the BS population, as in the paper).
        seed: root seed for all stochastic processes.
        profile: radio profile; the default uses slightly stronger
            shadowing than VanLAN (a town with street canyons, not a
            campus).
        bus_speed_mps: cruise speed (buses: ~30 km/h with stops).
        beacons_per_second: nominal AP beacon rate (10/s ~= the 802.11
            102.4 ms beacon interval).
    """

    def __init__(self, channel=1, seed=0, profile=None, bus_speed_mps=8.3,
                 beacons_per_second=10):
        self.channel = int(channel)
        self.seed = int(seed)
        self.rngs = RngRegistry(seed).spawn("dieselnet", channel)
        self.deployment = dieselnet_deployment(channel)
        # Calibrated so the Table 2 coordination statistics land in the
        # paper's regime (auxiliary overhearing A2 ~ 2.5-3.5, ViFi
        # false negatives ~ 15%); benchmarks/bench_table2_formulations.py
        # asserts the resulting shape.
        self.profile = profile or RadioProfile(
            path_loss_exponent=2.9,
            decode_mid_dbm=-90.0,
            shadowing_sigma_db=6.0,
            max_reception=0.9,
            gray_rate_per_s=1.0 / 40.0,
        )
        self.bus_speed_mps = float(bus_speed_mps)
        self.beacons_per_second = int(beacons_per_second)
        self._spatial = {
            bs: SpatialField(
                sigma_db=4.5,
                correlation_m=60.0,
                rng=self.rngs.fresh("spatial", bs),
            )
            for bs in self.deployment.bs_ids
        }

    def cache_token(self):
        """Identity for content-addressed caching (see repro.store)."""
        return ("DieselNetTestbed", self.channel, self.seed,
                self.bus_speed_mps, self.beacons_per_second,
                self.profile, self.deployment)

    def make_route(self, n_tours=1):
        """A bus tour (optionally repeated) with stops on main street."""
        waypoints = list(_BUS_WAYPOINTS)
        for _ in range(int(n_tours) - 1):
            waypoints.extend(_BUS_WAYPOINTS[1:])
        return Route(waypoints, speed_mps=self.bus_speed_mps,
                     stop_durations={1: 8.0, 3: 8.0})

    def bus_motion(self, n_tours=1):
        return VehicleMotion(self.make_route(n_tours))

    def link_model(self, day, bs_id, vehicle_position):
        """Layered link model for one profiling day."""
        day_rngs = self.rngs.spawn("day", day)
        shadowing = Shadowing(
            sigma_db=self.profile.shadowing_sigma_db,
            tau_s=self.profile.shadowing_tau_s,
            rng=day_rngs.stream("shadow", bs_id),
        )
        gray = GrayPeriodProcess(
            rate_per_s=self.profile.gray_rate_per_s,
            mean_duration_s=self.profile.gray_duration_s,
            rng=day_rngs.stream("gray", bs_id),
        )
        return LinkModel(
            profile=self.profile,
            position_a=self.deployment.position_of(bs_id),
            position_b=vehicle_position,
            shadowing=shadowing,
            gray=gray,
            spatial=self._spatial[bs_id],
        )

    def generate_beacon_log(self, day, n_tours=1):
        """One profiling day: per-second beacon counts per BS.

        The bus logs beacons on a fixed channel ("the profiling channel
        was fixed so that beacons are not lost while scanning",
        Section 2.2); each second's count is binomial in the nominal
        beacon rate with the instantaneous link reception probability.
        """
        motion = self.bus_motion(n_tours)
        n_secs = int(motion.route.duration)
        bs_ids = self.deployment.bs_ids
        heard = np.zeros((n_secs, len(bs_ids)), dtype=int)
        day_rngs = self.rngs.spawn("day", day)
        for j, bs in enumerate(bs_ids):
            link = self.link_model(day, bs, motion)
            rng = day_rngs.stream("beacons", bs)
            for sec in range(n_secs):
                p = link.reception_prob(sec + 0.5)
                heard[sec, j] = rng.binomial(self.beacons_per_second, p)
        return BeaconLog(bs_ids, heard, expected=self.beacons_per_second)

    def generate_profiling_days(self, n_days=3, n_tours=1):
        """The paper's three profiling days of beacon logs."""
        return [self.generate_beacon_log(day, n_tours=n_tours)
                for day in range(n_days)]

    @property
    def vehicle_id(self):
        return VEHICLE_ID
