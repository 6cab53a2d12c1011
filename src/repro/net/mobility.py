"""Vehicle mobility: waypoint routes.

VanLAN's vehicles "provide a shuttle service around the town, moving
within a speed limit of about 40 km/h" (Section 2.1).  We model a
vehicle as a point following a piecewise-linear waypoint route at a
per-segment speed, with brief stops at designated waypoints (bus
stops).  A testbed's :class:`Route` is its vehicle's motion: positions
are exact at any float time, and ``positions_at`` is the array form
the propagation bank places the vehicle by, float for float the
scalar position.
"""

import bisect
import math

import numpy as np

__all__ = ["Route"]


class Route:
    """A piecewise-linear path through a list of waypoints.

    The vehicle sets off at time zero; after the last waypoint it stays
    there.

    Args:
        waypoints: sequence of ``(x, y)`` points, at least two.
        speed_mps: cruise speed in metres/second (default 11.1, i.e.
            40 km/h, the VanLAN shuttle speed limit).
        stop_durations: optional mapping from waypoint index to dwell
            time in seconds (the vehicle pauses there).
    """

    def __init__(self, waypoints, speed_mps=11.1, stop_durations=None):
        points = [(float(x), float(y)) for x, y in waypoints]
        if len(points) < 2:
            raise ValueError("a route needs at least two waypoints")
        if speed_mps <= 0:
            raise ValueError("speed must be positive")
        self.waypoints = points
        self.speed = float(speed_mps)
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

    def position_at(self, t):
        """Position at time *t* seconds from the start of the route."""
        if t < 0:
            raise ValueError("route queried before departure")
        if t >= self.duration:
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
        pos[t >= self.duration] = self.waypoints[-1]
        return pos[:, 0], pos[:, 1]
