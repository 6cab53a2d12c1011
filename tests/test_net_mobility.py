"""Unit tests for routes and vehicle motion."""

import math

import numpy as np
import pytest

from repro.net.mobility import (
    Route,
    StationaryPosition,
    VehicleMotion,
    gps_samples,
)
from repro.testbeds.vanlan import VanLanTestbed


def _assert_bitwise_scalar(position, batched, times):
    """Every ``positions_at`` element is the scalar call's exact float."""
    xs, ys = batched(np.asarray(times, dtype=np.float64))
    for t, x, y in zip(times, xs.tolist(), ys.tolist()):
        assert position(float(t)) == (x, y)


class TestRoute:
    def test_straight_line_kinematics(self):
        route = Route([(0, 0), (100, 0)], speed_mps=10.0)
        assert route.duration == pytest.approx(10.0)
        assert route.position_at(0.0) == (0.0, 0.0)
        assert route.position_at(5.0) == (50.0, 0.0)
        assert route.position_at(10.0) == (100.0, 0.0)

    def test_position_clamps_after_arrival(self):
        route = Route([(0, 0), (100, 0)], speed_mps=10.0)
        assert route.position_at(999.0) == (100.0, 0.0)

    def test_multi_segment_path_length(self):
        route = Route([(0, 0), (30, 40), (30, 140)], speed_mps=10.0)
        assert route.path_length == pytest.approx(50 + 100)
        assert route.duration == pytest.approx(15.0)

    def test_dwell_pauses_motion(self):
        route = Route([(0, 0), (100, 0)], speed_mps=10.0,
                      stop_durations={0: 5.0})
        assert route.position_at(3.0) == (0.0, 0.0)
        assert route.position_at(10.0) == (50.0, 0.0)
        assert route.duration == pytest.approx(15.0)

    def test_loop_wraps_around(self):
        route = Route([(0, 0), (100, 0)], speed_mps=10.0, loop=True)
        # Looping closes the polygon: 0->100->0, 20 s per lap.
        x0, _ = route.position_at(2.0)
        x1, _ = route.position_at(2.0 + route.duration)
        assert x0 == pytest.approx(x1)

    def test_too_few_waypoints_rejected(self):
        with pytest.raises(ValueError):
            Route([(0, 0)])

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            Route([(0, 0), (1, 1)], speed_mps=0.0)

    def test_negative_time_rejected(self):
        route = Route([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            route.position_at(-0.1)


class TestVehicleMotion:
    def test_waits_until_departure(self):
        motion = VehicleMotion(Route([(0, 0), (100, 0)], 10.0),
                               depart_at=5.0)
        assert motion(2.0) == (0.0, 0.0)
        assert motion(10.0) == (50.0, 0.0)

    def test_speed_estimate(self):
        motion = VehicleMotion(Route([(0, 0), (1000, 0)], 10.0))
        assert motion.speed_at(50.0) == pytest.approx(10.0, rel=0.05)

    def test_speed_zero_when_parked(self):
        motion = VehicleMotion(Route([(0, 0), (100, 0)], 10.0))
        assert motion.speed_at(500.0) == pytest.approx(0.0, abs=1e-6)


class TestPositionsAt:
    """``positions_at`` is the scalar position, bit for bit, as arrays."""

    def test_vanlan_route_with_dwell(self):
        # VanLAN's route dwells 5 s at waypoint 0 before it moves.
        route = VanLanTestbed(seed=0).make_route()
        assert route._segments[0][2] == route._segments[0][3]
        times = np.concatenate([
            (np.arange(0, 12000) + 0.5) * 0.02,  # bucket centres
            [0.0, 2.5, 5.0, route.duration, route.duration + 40.0],
        ])
        _assert_bitwise_scalar(route.position_at, route.positions_at,
                               times)

    def test_departure_delay_before_and_past_the_route(self):
        route = VanLanTestbed(seed=0).make_route()
        motion = VehicleMotion(route, depart_at=7.3)
        end = 7.3 + route.duration
        times = np.concatenate([
            np.linspace(0.0, 7.3, 50),  # parked before departure
            [7.3, np.nextafter(7.3, 8.0), 12.3],
            np.linspace(7.3, end + 30.0, 4001),  # through and past the end
            [end, np.nextafter(end, 0.0)],
        ])
        _assert_bitwise_scalar(motion, motion.positions_at, times)
        xs, ys = motion.positions_at(np.array([0.0, 7.3, end + 1.0]))
        assert (xs[0], ys[0]) == route.waypoints[0]
        assert (xs[1], ys[1]) == route.waypoints[0]
        assert (xs[2], ys[2]) == route.waypoints[-1]

    def test_looping_route(self):
        route = Route([(0, 0), (100, 0), (100, 50), (100, 50)],
                      speed_mps=7.3, stop_durations={1: 2.0, 3: 1.5},
                      loop=True)
        times = np.linspace(0.0, 5.0 * route.duration, 9001)
        _assert_bitwise_scalar(route.position_at, route.positions_at,
                               times)

    def test_negative_time_rejected(self):
        route = Route([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            route.positions_at(np.array([0.0, -0.1]))


class TestGps:
    def test_one_hertz_samples(self):
        motion = VehicleMotion(Route([(0, 0), (100, 0)], 10.0))
        fixes = list(gps_samples(motion, 0.0, 5.0))
        assert len(fixes) == 6
        times = [t for t, _, _ in fixes]
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert fixes[3][1] == pytest.approx(30.0)

    def test_stationary_position(self):
        pos = StationaryPosition(3.0, 4.0)
        assert pos(0.0) == (3.0, 4.0)
        assert pos(100.0) == (3.0, 4.0)
        assert math.hypot(*pos(5.0)) == pytest.approx(5.0)
