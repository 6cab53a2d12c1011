"""Trace record formats.

Two artifact types drive every experiment in the paper:

* :class:`ProbeTrace` — the Section 3.1 broadcast-probe methodology on
  VanLAN: "each BS and vehicle broadcasts a 500-byte packet at 1 Mbps
  every 100 ms ... nodes log all correctly decoded packets and
  beacons."  A probe trace records, per 100 ms slot and per BS, whether
  the vehicle's probe reached the BS (upstream), whether the BS's probe
  reached the vehicle (downstream), and the RSSI of received beacons.
* :class:`BeaconLog` — the DieselNet methodology (Section 2.2): a
  vehicle logs beacons heard from nearby BSes; the analysis uses
  per-second reception counts per BS.
"""

import functools

import numpy as np

__all__ = ["BeaconLog", "ProbeTrace"]


class ProbeTrace:
    """Broadcast-probe reception trace for one vehicle trip.

    Attributes:
        bs_ids: list of basestation ids, defining column order.
        slot_dt: probe interval in seconds (0.1 in the paper).
        up: bool array ``[n_slots, n_bs]``; ``up[t, j]`` is True when
            the vehicle's probe in slot *t* was decoded by BS *j*.
        down: bool array, same shape, for the BS-to-vehicle direction.
        rssi: float array, RSSI (dBm) of the beacon the vehicle decoded
            from BS *j* in slot *t*; ``nan`` when nothing was decoded.
        positions: float array ``[n_slots, 2]`` of vehicle coordinates.
    """

    def __init__(self, bs_ids, slot_dt, up, down, rssi, positions):
        self.bs_ids = [int(b) for b in bs_ids]
        self.slot_dt = float(slot_dt)
        self.up = np.asarray(up, dtype=bool)
        self.down = np.asarray(down, dtype=bool)
        self.rssi = np.asarray(rssi, dtype=float)
        self.positions = np.asarray(positions, dtype=float)
        n_slots, n_bs = self.up.shape
        if self.down.shape != (n_slots, n_bs):
            raise ValueError("up/down shape mismatch")
        if self.rssi.shape != (n_slots, n_bs):
            raise ValueError("rssi shape mismatch")
        if len(self.bs_ids) != n_bs:
            raise ValueError("bs_ids length does not match columns")
        if self.positions.shape != (n_slots, 2):
            raise ValueError("positions shape mismatch")

    @property
    def n_slots(self):
        return self.up.shape[0]

    @property
    def n_bs(self):
        return self.up.shape[1]

    @property
    def duration(self):
        return self.n_slots * self.slot_dt

    @property
    def slots_per_second(self):
        return int(round(1.0 / self.slot_dt))

    def column(self, bs_id):
        """Column index of a basestation id."""
        return self.bs_ids.index(bs_id)

    def subset(self, bs_ids):
        """Trace restricted to the given basestations (column slice)."""
        cols = [self.column(b) for b in bs_ids]
        return ProbeTrace(
            bs_ids=[self.bs_ids[c] for c in cols],
            slot_dt=self.slot_dt,
            up=self.up[:, cols],
            down=self.down[:, cols],
            rssi=self.rssi[:, cols],
            positions=self.positions,
        )

    def per_second_reception(self):
        """Per-second reception ratios.

        Returns:
            ``(up_rr, down_rr)`` — float arrays ``[n_secs, n_bs]`` of
            per-second reception ratios; trailing partial seconds are
            dropped.
        """
        sps = self.slots_per_second
        n_secs = self.n_slots // sps
        up = self.up[: n_secs * sps].reshape(n_secs, sps, self.n_bs)
        down = self.down[: n_secs * sps].reshape(n_secs, sps, self.n_bs)
        return up.mean(axis=1), down.mean(axis=1)

    @functools.cached_property
    def observations(self):
        """What a client observed in each whole second of the trace.

        One :class:`~repro.handoff.base.PerSecondObservation` per
        second, from the beacons (downstream probes) decoded in it:
        the count per heard BS, their mean RSSI and the vehicle's
        position at the second's last slot.  They depend on the trace
        alone, so they are built once and every policy replay reads the
        same list; policies never write to an observation.
        """
        # Imported here: a testbed, and the sweep runner built on one,
        # loads no handoff module.
        from repro.handoff.base import PerSecondObservation

        sps = self.slots_per_second
        out = []
        for sec in range(self.n_slots // sps):
            lo, hi = sec * sps, (sec + 1) * sps
            heard = {}
            mean_rssi = {}
            for j, bs in enumerate(self.bs_ids):
                count = int(self.down[lo:hi, j].sum())
                if count > 0:
                    heard[bs] = count
                    mean_rssi[bs] = float(np.nanmean(self.rssi[lo:hi, j]))
            out.append(PerSecondObservation(
                second=sec,
                beacons_heard=heard,
                beacons_expected=sps,
                mean_rssi=mean_rssi,
                position=tuple(self.positions[hi - 1]),
            ))
        return out

    def __repr__(self):
        return (f"ProbeTrace({self.n_bs} BSes, {self.n_slots} slots, "
                f"{self.duration:.0f} s)")


class BeaconLog:
    """Per-second beacon reception counts for one vehicle run.

    Attributes:
        bs_ids: basestation ids defining column order.
        heard: int array ``[n_secs, n_bs]`` — beacons decoded.
        expected: beacons each BS nominally sent per second.
    """

    def __init__(self, bs_ids, heard, expected):
        self.bs_ids = [int(b) for b in bs_ids]
        self.heard = np.asarray(heard, dtype=int)
        self.expected = int(expected)
        if self.heard.ndim != 2 or self.heard.shape[1] != len(self.bs_ids):
            raise ValueError("heard array shape mismatch")
        if self.expected <= 0:
            raise ValueError("expected beacons per second must be positive")
        if (self.heard < 0).any() or (self.heard > self.expected).any():
            raise ValueError("beacon counts outside [0, expected]")

    @property
    def n_secs(self):
        return self.heard.shape[0]

    @property
    def n_bs(self):
        return self.heard.shape[1]

    def reception_ratio(self):
        """Per-second beacon reception ratio, ``[n_secs, n_bs]``."""
        return self.heard / float(self.expected)

    def loss_ratio(self):
        """Per-second beacon loss ratio (the Section 5.1 quantity)."""
        return 1.0 - self.reception_ratio()

    def visible_counts(self, min_ratio=None):
        """Number of BSes heard per second.

        Args:
            min_ratio: when ``None``, a BS counts if at least one beacon
                was heard (Figure 5a); otherwise it counts when at least
                ``min_ratio`` of its beacons were heard (Figure 5b uses
                0.5).
        """
        if min_ratio is None:
            return (self.heard >= 1).sum(axis=1)
        return (self.reception_ratio() >= min_ratio).sum(axis=1)

    def covisibility(self):
        """Boolean matrix: were two BSes ever heard in the same second?

        The paper uses this to decide inter-BS reachability: "BS pairs
        that are never simultaneously within the range of a bus cannot
        reach one another" (Section 5.1).
        """
        visible = self.heard >= 1
        return (visible[:, :, None] & visible[:, None, :]).any(axis=0)

    def __repr__(self):
        return f"BeaconLog({self.n_bs} BSes, {self.n_secs} s)"
