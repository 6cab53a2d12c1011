"""A small deterministic discrete-event simulator.

The engine is a binary-heap scheduler.  Events scheduled for the same
instant fire in insertion order (a monotone sequence number breaks
ties), which keeps runs deterministic regardless of callback identity.

Typical use::

    sim = Simulator()
    sim.schedule(1.5, node.on_timer)
    sim.run(until=300.0)

Handles returned by :meth:`Simulator.schedule` can cancel a pending
event; cancellation is O(1) (the event is tombstoned and skipped when
popped), which suits protocols that arm and disarm many timers, such as
ViFi's retransmission and relay timers.  The simulator keeps a live
(non-cancelled) event count so :attr:`Simulator.pending` is O(1), and
compacts the heap whenever tombstones outnumber live events, so
cancel-heavy runs do not bloat the queue.

Hot paths that never cancel (frame attempts/resolutions, slotted
beacon batches) can use :meth:`Simulator.schedule_fire_at`, which skips
the handle allocation entirely and stores a raw tuple on the heap.
"""

import heapq
import itertools
import math

__all__ = ["EventHandle", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduling errors, e.g. scheduling into the past."""


class EventHandle:
    """Handle to a scheduled event; supports cancellation."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_owner")

    def __init__(self, time, seq, callback, args, owner=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner = owner

    def cancel(self):
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None and self.callback is not None:
            self._owner._on_cancel()

    @property
    def active(self):
        """True while the event is neither cancelled nor fired."""
        return not self.cancelled and self.callback is not None

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Deterministic event loop with a floating-point clock (seconds)
    that starts at zero."""

    #: Heaps smaller than this are never compacted; below this size the
    #: rebuild costs more than the tombstones it reclaims.
    _COMPACT_MIN = 64

    def __init__(self):
        #: Current simulation time in seconds.  A plain attribute — the
        #: clock is read on every hot-path callback, and the property
        #: descriptor overhead was measurable; treat as read-only.
        self.now = 0.0
        # Heap of (time, seq, EventHandle): raw tuples keep heap sifts
        # in C (seq is unique, so the handle itself is never compared).
        self._queue = []
        self._seq = itertools.count()
        self._live = 0
        self.events_processed = 0

    def schedule(self, delay, callback, *args):
        """Schedule *callback(*args)* to fire *delay* seconds from now.

        Returns an :class:`EventHandle` usable for cancellation.  A zero
        delay fires after currently queued same-time events.
        """
        if delay < 0 or not math.isfinite(delay):
            raise SimulationError(f"invalid delay {delay!r}")
        time = self.now + delay
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, owner=self)
        heapq.heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

    def schedule_at(self, time, callback, *args):
        """Schedule *callback(*args)* at absolute simulation *time*."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, now is {self.now:.6f}"
            )
        time = float(time)
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, owner=self)
        heapq.heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

    def schedule_fire_at(self, time, callback, *args):
        """Schedule a fire-and-forget event at absolute *time*.

        No :class:`EventHandle` is created, so the event cannot be
        cancelled — in exchange the hot paths that never cancel (frame
        attempts and resolutions, slotted beacon emissions) skip an
        object allocation per event.  The queue stores a raw
        ``(time, seq, None, callback, args)`` tuple; ``seq`` is unique,
        so heap ordering never compares past it.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, now is {self.now:.6f}"
            )
        heapq.heappush(
            self._queue,
            (float(time), next(self._seq), None, callback, args),
        )
        self._live += 1

    def schedule_fire(self, delay, callback, *args):
        """Relative-delay twin of :meth:`schedule_fire_at`.

        For periodic bookkeeping that never cancels (per-second node
        ticks, gateway wire latencies): the handle allocation of
        :meth:`schedule` is skipped; times, sequence numbers and firing
        order are identical to the handle-bearing call.
        """
        if delay < 0 or not math.isfinite(delay):
            raise SimulationError(f"invalid delay {delay!r}")
        heapq.heappush(
            self._queue,
            (self.now + delay, next(self._seq), None, callback, args),
        )
        self._live += 1

    def _on_cancel(self):
        """A queued event was tombstoned; compact if they dominate."""
        self._live -= 1
        queued = len(self._queue)
        if (queued >= self._COMPACT_MIN
                and queued - self._live > queued // 2):
            self._compact()

    def _compact(self):
        """Drop tombstoned events and rebuild the heap in O(n).

        Mutates the queue in place so references held by a running
        event loop stay valid.
        """
        self._queue[:] = [e for e in self._queue
                          if e[2] is None or not e[2].cancelled]
        heapq.heapify(self._queue)

    def run(self, until=None):
        """Run events in order until the queue drains or *until* passes.

        Args:
            until: stop once the next event is strictly later than this
                time; the clock is then advanced to *until*.

        Returns:
            Number of events processed during this call.
        """
        processed = 0
        queue = self._queue  # _compact mutates in place; safe to hoist
        heappop = heapq.heappop
        while queue:
            item = queue[0]
            head = item[2]
            if head is not None and head.cancelled:
                heappop(queue)
                continue
            time = item[0]
            if until is not None and time > until:
                break
            heappop(queue)
            self._live -= 1
            self.now = time
            if head is None:
                callback = item[3]
                args = item[4]
            else:
                callback, args = head.callback, head.args
                head.callback = None
                head.args = None
            callback(*args)
            processed += 1
            self.events_processed += 1
        if until is not None and self.now < until:
            self.now = float(until)
        return processed

    @property
    def pending(self):
        """Number of queued, non-cancelled events.  O(1)."""
        return self._live

    def __repr__(self):
        return f"Simulator(now={self.now:.6f}, pending={self.pending})"
