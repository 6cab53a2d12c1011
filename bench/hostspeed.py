"""Host-speed sampler: wall times corrected for a shared machine's drift.

On a virtual machine that shares its cores with other tenants, the same
code runs up to half again slower for seconds at a time, and each core
drifts on its own.  A benchmark timing raw wall seconds then measures
the neighbours.  This module measures the drift instead of averaging it
away: a timer signal (``SIGALRM``, every ``PERIOD_S``) runs a fixed
pure-Python probe in the process being timed and records how long it
took.  A probe time of ``REF_PROBE_S`` is the reference speed.

:func:`corrected` turns a wall interval into *reference seconds*: its
length times the mean speed (``REF_PROBE_S / probe time``) of the probes
taken inside it.  A run on a host slowed by a third reads about the same
as a run on the idle host, while a change that makes the program do
less work reads lower on either.  The probe is the benchmark's own code,
so a change to the program cannot speed it up.

The probe touches no state of the program under test: it draws no
random number and schedules no event, so runs keep their realization.
It costs about 2 % of the process's time.  Interval timers are not
inherited across ``fork``, so a pool worker starts its own sampler.
"""

import heapq
import os
import signal
import time

__all__ = ["PERIOD_S", "REF_PROBE_S", "corrected", "drain", "start",
           "stop"]

#: Seconds between probes.
PERIOD_S = 0.05
#: Probe time at the reference speed: about the probe's time between
#: stretches of simulation on an uncontended core of the 2-vCPU host
#: the benchmark was written on, so reference seconds read close to
#: that host's quiet wall seconds.
REF_PROBE_S = 0.001

# pid of the process whose timer is running, and its samples so far:
# ``[monotonic time at probe start, probe seconds]``.
_state = {"pid": None, "samples": []}


class _Peer:
    """Stand-in for a simulated node: a counter and a per-key table."""

    def __init__(self):
        self.count = 0
        self.seen = {}

    def on(self, key, value):
        self.count += 1
        self.seen[key] = value


# The probe's working set.  A tiny arithmetic loop slows less than the
# simulator does when a neighbour contends for the core; hashed lookups
# in a 4096-entry table, method calls on scattered objects and heap
# operations track it to within a few percent.
_TABLE = {i: i for i in range(4096)}
_PEERS = [_Peer() for _ in range(512)]
_HEAP = [(float(i), i) for i in range(2048)]


def _probe():
    table, peers, queue = _TABLE, _PEERS, _HEAP
    j = 0
    for i in range(1000):
        j = (j * 1103515245 + 12345) & 4095
        table[j] = table.get(j, 0) + 1
        if i & 1:
            peers[j & 511].on(i & 63, i)
        if i & 3 == 0:
            t, k = heapq.heappop(queue)
            heapq.heappush(queue, (t + 2048.0, k))


def _on_alarm(signum, frame):
    t0 = time.monotonic()
    _probe()
    _state["samples"].append([t0, time.monotonic() - t0])


def start():
    """Start sampling in this process; False if it already samples."""
    if _state["pid"] == os.getpid():
        return False
    _state["pid"] = os.getpid()
    _state["samples"] = []
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    return True


def stop():
    """Stop sampling; returns the samples not yet drained."""
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    _state["pid"] = None
    return drain()


def drain():
    """The samples taken since the last drain."""
    samples, _state["samples"] = _state["samples"], []
    return samples


def _speed(samples, begin, end):
    inside = [d for t, d in samples if begin <= t <= end]
    if not inside:
        if not samples:
            raise ValueError("no host-speed samples")
        middle = 0.5 * (begin + end)
        inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
    return sum(REF_PROBE_S / d for d in inside) / len(inside)


def corrected(samples, begin, end, busy=()):
    """Reference seconds of the wall interval ``[begin, end]``.

    The interval's length times the mean speed of the *samples* (this
    process's probes) taken in it; with none inside, the probe nearest
    to it stands in.

    *busy* lists work done meanwhile in pool workers, as ``[worker,
    start, end, reference seconds]`` spans, each corrected by its own
    worker's probes.  Workers run on cores that drift apart, so their
    work is not corrected by this process's speed: the busiest worker's
    reference seconds replace its wall time, which lies on the
    interval's critical path, and only the rest of the interval is
    scaled by this process's speed.
    """
    raw, ref = {}, {}
    for worker, first, last, ref_s in busy:
        if begin <= first and last <= end:
            raw[worker] = raw.get(worker, 0.0) + last - first
            ref[worker] = ref.get(worker, 0.0) + ref_s
    critical_raw = max(raw.values(), default=0.0)
    critical_ref = max(ref.values(), default=0.0)
    rest = end - begin - critical_raw
    return rest * _speed(samples, begin, end) + critical_ref
