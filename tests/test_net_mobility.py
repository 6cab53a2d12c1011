"""Unit tests for routes, each a testbed vehicle's motion."""

import numpy as np
import pytest

from repro.net.mobility import Route
from repro.testbeds.dieselnet import DieselNetTestbed
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
        # 50 m then 100 m at 10 m/s: the corner is reached at 5 s.
        route = Route([(0, 0), (30, 40), (30, 140)], speed_mps=10.0)
        assert route.duration == pytest.approx(15.0)
        assert route.position_at(5.0) == (30.0, 40.0)

    def test_dwell_pauses_motion(self):
        route = Route([(0, 0), (100, 0)], speed_mps=10.0,
                      stop_durations={0: 5.0})
        assert route.position_at(3.0) == (0.0, 0.0)
        assert route.position_at(10.0) == (50.0, 0.0)
        assert route.duration == pytest.approx(15.0)

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
    """The testbeds' vehicles follow their routes from time zero."""

    def test_waits_until_departure(self):
        # The shuttle stands 5 s at its first stop, then sets off.
        motion = VanLanTestbed(seed=0).vehicle_motion()
        start = motion.waypoints[0]
        assert motion.position_at(0.0) == start
        assert motion.position_at(4.9) == start
        assert motion.position_at(5.5) != start

    def test_speed_estimate(self):
        speed = 40.0 / 3.6
        motion = VanLanTestbed(seed=0, speed_mps=speed).vehicle_motion()
        (x0, y0), (x1, y1) = motion.position_at(49.9), motion.position_at(50.1)
        assert np.hypot(x1 - x0, y1 - y0) / 0.2 == pytest.approx(speed)

    def test_speed_zero_when_parked(self):
        # The bus stops 8 s at waypoint 1 of its tour.
        motion = DieselNetTestbed(channel=1, seed=0).bus_motion()
        reached = np.hypot(*np.subtract(motion.waypoints[1],
                                        motion.waypoints[0])) / 8.3
        assert motion.position_at(reached + 1.0) == motion.waypoints[1]
        assert motion.position_at(reached + 7.0) == motion.waypoints[1]


class TestPositionsAt:
    """``positions_at`` is the scalar position, bit for bit, as arrays."""

    def test_vanlan_route_with_dwell(self):
        # VanLAN's route dwells 5 s at waypoint 0 before it moves.
        route = VanLanTestbed(seed=0).vehicle_motion()
        assert route._segments[0][2] == route._segments[0][3]
        times = np.concatenate([
            (np.arange(0, 12000) + 0.5) * 0.02,  # bucket centres
            [0.0, 2.5, 5.0, route.duration, route.duration + 40.0],
        ])
        _assert_bitwise_scalar(route.position_at, route.positions_at,
                               times)

    def test_departure_delay_before_and_past_the_route(self):
        # The shuttle departs after its 5 s stop at waypoint 0.
        route = VanLanTestbed(seed=0).vehicle_motion()
        end = route.duration
        times = np.concatenate([
            np.linspace(0.0, 5.0, 50),  # standing before departure
            [5.0, np.nextafter(5.0, 6.0), 12.3],
            np.linspace(5.0, end + 30.0, 4001),  # through and past the end
            [end, np.nextafter(end, 0.0)],
        ])
        _assert_bitwise_scalar(route.position_at, route.positions_at, times)
        xs, ys = route.positions_at(np.array([0.0, 5.0, end + 1.0]))
        assert (xs[0], ys[0]) == route.waypoints[0]
        assert (xs[1], ys[1]) == route.waypoints[0]
        assert (xs[2], ys[2]) == route.waypoints[-1]

    def test_looping_route(self):
        # A circuit back to its start, with a stop mid-way and a final
        # dwell, read through and past its end.
        route = Route([(0, 0), (100, 0), (100, 50), (0, 0)],
                      speed_mps=7.3, stop_durations={1: 2.0, 3: 1.5})
        assert route.waypoints[-1] == route.waypoints[0]
        times = np.linspace(0.0, 1.5 * route.duration, 9001)
        _assert_bitwise_scalar(route.position_at, route.positions_at,
                               times)

    def test_negative_time_rejected(self):
        route = Route([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            route.positions_at(np.array([0.0, -0.1]))
