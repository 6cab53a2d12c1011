"""Vehicle mobility: waypoint routes and position sampling.

VanLAN's vehicles "provide a shuttle service around the town, moving
within a speed limit of about 40 km/h" (Section 2.1).  We model a
vehicle as a point following a piecewise-linear waypoint route at a
per-segment speed, optionally looping, with brief stops at designated
waypoints (bus stops).  Positions are exact at any float time; a 1 Hz
sampler mirrors the testbeds' GPS units.  ``positions_at`` is the
array form, float for float the scalar position.
"""

import bisect
import math

import numpy as np

__all__ = ["Route", "StationaryPosition", "VehicleMotion", "gps_samples"]


class StationaryPosition:
    """Position callable for a fixed node (a basestation)."""

    def __init__(self, x, y):
        self.x = float(x)
        self.y = float(y)

    def __call__(self, t):
        return (self.x, self.y)

    def __repr__(self):
        return f"StationaryPosition({self.x:.1f}, {self.y:.1f})"


class Route:
    """A piecewise-linear path through a list of waypoints.

    Args:
        waypoints: sequence of ``(x, y)`` points, at least two.
        speed_mps: cruise speed in metres/second (default 11.1, i.e.
            40 km/h, the VanLAN shuttle speed limit).
        stop_durations: optional mapping from waypoint index to dwell
            time in seconds (the vehicle pauses there).
        loop: if True, the route closes back to the first waypoint and
            repeats forever.
    """

    def __init__(self, waypoints, speed_mps=11.1, stop_durations=None,
                 loop=False):
        points = [(float(x), float(y)) for x, y in waypoints]
        if len(points) < 2:
            raise ValueError("a route needs at least two waypoints")
        if speed_mps <= 0:
            raise ValueError("speed must be positive")
        if loop and points[0] != points[-1]:
            points = points + [points[0]]
        self.waypoints = points
        self.speed = float(speed_mps)
        self.loop = loop
        stops = dict(stop_durations or {})

        # Build a time-parameterised schedule: list of (t_start, t_end,
        # p_start, p_end) segments, where a dwell is a zero-motion segment.
        self._segments = []
        t = 0.0
        for i in range(len(points) - 1):
            dwell = stops.get(i, 0.0)
            if dwell > 0:
                self._segments.append((t, t + dwell, points[i], points[i]))
                t += dwell
            (x0, y0), (x1, y1) = points[i], points[i + 1]
            length = math.hypot(x1 - x0, y1 - y0)
            duration = length / self.speed
            self._segments.append((t, t + duration, points[i], points[i + 1]))
            t += duration
        final_dwell = stops.get(len(points) - 1, 0.0)
        if final_dwell > 0:
            self._segments.append((t, t + final_dwell, points[-1], points[-1]))
            t += final_dwell
        self.duration = t
        self._starts = [seg[0] for seg in self._segments]

    @property
    def path_length(self):
        """Total geometric length of one traversal, metres."""
        total = 0.0
        for i in range(len(self.waypoints) - 1):
            (x0, y0), (x1, y1) = self.waypoints[i], self.waypoints[i + 1]
            total += math.hypot(x1 - x0, y1 - y0)
        return total

    def position_at(self, t):
        """Position at time *t* seconds from the start of the route."""
        if t < 0:
            raise ValueError("route queried before departure")
        if self.loop:
            t = math.fmod(t, self.duration)
        elif t >= self.duration:
            return self.waypoints[-1]
        idx = bisect.bisect_right(self._starts, t) - 1
        t0, t1, (x0, y0), (x1, y1) = self._segments[idx]
        if t1 <= t0:
            return (x0, y0)
        frac = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
        return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))

    def positions_at(self, t):
        """:meth:`position_at` over the array *t*, as ``(x, y)`` arrays.

        Same segment lookup, clamp and arithmetic order, so each
        element is bitwise the scalar call's float.
        """
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0):
            raise ValueError("route queried before departure")
        if self.loop:
            t = np.fmod(t, self.duration)
        # Segment arrays are built per call (a route has a few dozen
        # segments), so routes unpickled from a result store still work.
        segments = self._segments
        idx = np.searchsorted(self._starts, t, side="right") - 1
        t0 = np.array([seg[0] for seg in segments])[idx]
        span = np.array([seg[1] - seg[0] for seg in segments])[idx]
        p0 = np.array([seg[2] for seg in segments])[idx]
        p1 = np.array([seg[3] for seg in segments])[idx]
        moving = span > 0.0
        frac = np.clip((t - t0) / np.where(moving, span, 1.0), 0.0, 1.0)
        pos = np.where(moving[:, None], p0 + frac[:, None] * (p1 - p0), p0)
        if not self.loop:
            pos[t >= self.duration] = self.waypoints[-1]
        return pos[:, 0], pos[:, 1]


class VehicleMotion:
    """A vehicle following a :class:`Route`, usable as a position callable.

    Args:
        route: the route to follow.
        depart_at: simulation time the vehicle starts moving; before
            this it sits at the first waypoint.
    """

    def __init__(self, route, depart_at=0.0):
        self.route = route
        self.depart_at = float(depart_at)
        # One-entry memo: every link of a broadcast frame samples the
        # vehicle at the same instant, so repeats dominate.
        self._memo_t = None
        self._memo_pos = None

    def __call__(self, t):
        if t == self._memo_t:
            return self._memo_pos
        if t <= self.depart_at:
            pos = self.route.waypoints[0]
        else:
            pos = self.route.position_at(t - self.depart_at)
        self._memo_t = t
        self._memo_pos = pos
        return pos

    def positions_at(self, t):
        """:meth:`__call__` over the array *t*, bitwise, as ``(x, y)``."""
        t = np.asarray(t, dtype=np.float64)
        moving = t > self.depart_at
        x, y = self.route.positions_at(
            np.where(moving, t - self.depart_at, 0.0))
        x0, y0 = self.route.waypoints[0]
        return np.where(moving, x, x0), np.where(moving, y, y0)

    def speed_at(self, t):
        """Instantaneous speed (m/s), estimated over a 0.2 s window."""
        h = 0.1
        t0 = max(t - h, 0.0)
        x0, y0 = self(t0)
        x1, y1 = self(t + h)
        return math.hypot(x1 - x0, y1 - y0) / (t + h - t0)


def gps_samples(position, t_start, t_end):
    """Yield 1 Hz ``(t, x, y)`` GPS fixes like the testbeds' GPS units."""
    t = math.ceil(t_start)
    while t <= t_end:
        x, y = position(float(t))
        yield (float(t), x, y)
        t += 1
