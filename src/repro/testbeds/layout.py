"""Deployment geometry: basestation placements, bounds and radio links."""

import math

from repro.net.propagation import GrayPeriodProcess, LinkBank, Shadowing

__all__ = ["Deployment"]


class Deployment:
    """A set of named basestations in a bounded planar region.

    Attributes:
        name: human-readable deployment name.
        bs_positions: mapping bs_id -> (x, y) in metres.
        bounds: (width, height) of the region in metres.
    """

    def __init__(self, name, bs_positions, bounds):
        self.name = name
        self.bs_positions = {int(k): (float(x), float(y))
                             for k, (x, y) in bs_positions.items()}
        self.bounds = (float(bounds[0]), float(bounds[1]))

    def cache_token(self):
        """Identity for content-addressed caching (see repro.store)."""
        return ("Deployment", self.name,
                sorted(self.bs_positions.items()), self.bounds)

    @property
    def bs_ids(self):
        return sorted(self.bs_positions.keys())

    @property
    def n_bs(self):
        return len(self.bs_positions)

    def distance(self, bs_a, bs_b):
        """Distance between two basestations, metres."""
        xa, ya = self.bs_positions[bs_a]
        xb, yb = self.bs_positions[bs_b]
        return math.hypot(xa - xb, ya - yb)

    def link_bank(self, profile, motion, rngs, spatial, bs_ids=None):
        """The :class:`~repro.net.propagation.LinkBank` of one run.

        One link per basestation in *bs_ids* (default: all of them), in
        that order, to the vehicle following *motion*.  Each link draws
        its shadowing from ``rngs.stream("shadow", bs)`` and its gray
        periods from ``rngs.stream("gray", bs)``, with *profile*'s
        parameters; *spatial* maps each BS to its static spatial field.
        A run's *rngs* (a testbed trip's or day's registry) thus fixes
        the time-varying layers, while the spatial fields persist.
        """
        bs_ids = self.bs_ids if bs_ids is None else list(bs_ids)
        return LinkBank(
            profile, motion,
            [self.bs_positions[bs] for bs in bs_ids],
            [Shadowing(profile.shadowing_sigma_db, profile.shadowing_tau_s,
                       rngs.stream("shadow", bs)) for bs in bs_ids],
            [GrayPeriodProcess(profile.gray_rate_per_s,
                               profile.gray_duration_s,
                               rngs.stream("gray", bs)) for bs in bs_ids],
            [spatial[bs] for bs in bs_ids],
        )

    def __repr__(self):
        w, h = self.bounds
        return (f"Deployment({self.name!r}, {self.n_bs} BSes, "
                f"{w:.0f}x{h:.0f} m)")
