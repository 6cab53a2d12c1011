"""The ViFi protocol engines: vehicle and basestation nodes.

This module implements the five-step protocol of Section 4.3 plus its
supporting machinery:

1. src transmits the packet P.
2. If dst receives P, it broadcasts an ACK.
3. If an auxiliary overhears P, but within a small window has not
   heard an ACK, it probabilistically relays P.
4. If dst receives relayed P and has not already sent an ACK, it
   broadcasts an ACK.
5. If src does not receive an ACK within a retransmission interval,
   it retransmits P.

Upstream relays ride the inter-BS backplane; downstream relays ride the
vehicle-BS wireless channel.  A packet is considered for relaying only
once, and relayed copies are never re-relayed.

The source logic (queueing, adaptive retransmission, bitmap-ack
processing, one-frame-at-the-interface pacing) is shared between the
vehicle (upstream) and the anchor BS (downstream) via
:class:`LinkSender`.
"""

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

from repro.core.relaying import RelayContext
from repro.core.retransmit import AdaptiveRetxTimer
from repro.net.packet import Ack, Beacon, DataPacket, Direction, FrameKind
from repro.sim.rng import BufferedUniforms

__all__ = ["BasestationNode", "BeaconSlotter", "LinkSender", "VehicleNode"]

# Protocol constants.  The paper states the beacon rate (Section 4.6)
# and the salvage threshold (Section 4.5); the rest are engineering
# choices.

#: Nominal beacon interval (s); each interval is jittered by up to 5 %.
BEACON_INTERVAL_S = 0.1
#: Anchor designation (Section 4.3): a challenger must beat the anchor's
#: estimate by ANCHOR_HYSTERESIS, no BS below MIN_ANCHOR_QUALITY
#: anchors, the BSes heard within AUX_RECENT_S are auxiliaries, and a
#: BS that hears no vehicle beacon for ANCHOR_BELIEF_TIMEOUT_S stops
#: believing it anchors.
ANCHOR_HYSTERESIS = 0.15
MIN_ANCHOR_QUALITY = 0.05
AUX_RECENT_S = 2.0
ANCHOR_BELIEF_TIMEOUT_S = 3.0
#: The auxiliaries' ack-wait window (s): the median data-to-ack gap
#: (RELAY_INITIAL_WINDOW_S before any sample) times the multiplier,
#: clamped to [RELAY_MIN_AGE_S, RELAY_MAX_WINDOW_S]; a pending decision
#: waits at most RELAY_MAX_AGE_S, plus up to RELAY_TIMER_INTERVAL_S of
#: jitter.
RELAY_MIN_AGE_S = 0.008
RELAY_INITIAL_WINDOW_S = 0.012
RELAY_WINDOW_PERCENTILE = 50.0
RELAY_WINDOW_MULTIPLIER = 2.0
RELAY_MAX_WINDOW_S = 0.05
RELAY_MAX_AGE_S = 0.25
RELAY_TIMER_INTERVAL_S = 0.010
#: Salvage threshold (s): the paper ties it to TCP's 1 s minimum RTO.
SALVAGE_AGE_S = 1.0

#: Number of recently received pkt_ids remembered per peer for
#: de-duplication and bitmap construction.
_RECEIVE_MEMORY = 512

# Frame-kind members bound at module level: reception dispatch runs for
# every delivered frame.
_BEACON = FrameKind.BEACON
_DATA = FrameKind.DATA
_ACK = FrameKind.ACK


class BeaconSlotter:
    """Slot-aligned batching of every node's beacon timer.

    With a dozen nodes beaconing ten times a second, per-node timers
    are the single largest source of heap events in a protocol run.
    The slotter keeps each node's *nominal* due time (phase, then
    ``due += interval + jitter``, drawn from the node's own stream) in
    one priority queue and
    arms a single fire-and-forget event per occupied slot: when it
    fires, every beacon due up to that slot boundary is emitted in due
    order.

    Fidelity: due times are computed from the nominal chain, never from
    the aligned emission times, so beacon *rates* — the estimator's
    denominators — are exactly the nominal ones; each emission
    is merely delayed to the next multiple of :attr:`SLOT_S` (at most
    one slot, 20 ms against a 100 ms beacon interval).

    A slot's emissions are handed to the *medium* as one batch
    (:meth:`~repro.net.medium.WirelessMedium.send_slot_batch`; a lone
    beacon goes through a plain ``send``): when the medium is idle and
    every emitter is free, the whole slot claims consecutive airtimes
    and costs a single heap event, falling back to per-frame sends
    whenever those conditions fail.
    """

    #: Slot width (seconds): beacons due inside one slot share one
    #: heap event at the slot boundary.
    SLOT_S = 0.02

    def __init__(self, sim, medium):
        self.sim = sim
        self.medium = medium
        self.faults = None  # set by an installed FaultPlane
        self._heap = []  # (nominal due, seq, node)
        self._seq = itertools.count()
        self._next_fire_at = None

    def add(self, node, first_due):
        """Register *node*; its first beacon is due at *first_due*."""
        heapq.heappush(self._heap, (float(first_due), next(self._seq),
                                    node))
        self._arm(self._slot_after(first_due))

    def _slot_after(self, due):
        """The emission slot for a nominal due time (never earlier)."""
        slot = self.SLOT_S
        aligned = math.ceil(due / slot) * slot
        return aligned if aligned >= due else aligned + slot

    def _arm(self, at):
        """Ensure a fire event exists at *at* or earlier.

        A node registered after the slotter armed may be due before
        the armed slot; an extra earlier event is scheduled and the
        superseded one becomes a no-op (see :meth:`_fire`).
        """
        nxt = self._next_fire_at
        if nxt is not None and nxt <= at:
            return
        self._next_fire_at = at
        self.sim.schedule_fire_at(at, self._fire)

    def _fire(self):
        now = self.sim.now
        nxt = self._next_fire_at
        if nxt is None or now < nxt:
            return  # superseded: an earlier fire already served us
        self._next_fire_at = None
        heap = self._heap
        push, pop = heapq.heappush, heapq.heappop
        # Build every due beacon first (builds draw no randomness and
        # read only the emitter's own state, so batch-building is
        # bit-identical to build-and-send interleaving), then offer the
        # slot to the medium as one batch.
        batch = []
        while heap and heap[0][0] <= now:
            due, _, node = pop(heap)
            # Fault-suppressed emitters skip the batch but keep
            # advancing (and drawing) their nominal due chain.
            if not node._beacon_blocked():
                batch.append((node.node_id, node._build_beacon()))
            push(heap, (node._next_beacon_due(due), next(self._seq),
                        node))
        if len(batch) == 1:
            self.medium.send(batch[0][0], batch[0][1])
        elif batch:
            self.medium.send_slot_batch(batch)
        if heap:
            self._arm(self._slot_after(heap[0][0]))


class _ReceiverState:
    """Per-source reception memory: de-duplication and ack bitmaps.

    An array-backed ring of the last ``_RECEIVE_MEMORY`` packet ids
    plus a membership set: recording is two O(1) set operations and a
    ring slot write, and the bitmap probes are set lookups — no
    ordered-dict reshuffling on the per-packet path.  Eviction is
    FIFO by first reception rather than LRU; with monotonically
    increasing packet ids and a 512-deep window the two policies only
    diverge after a duplicate arrives hundreds of fresh packets late,
    far outside the 8-slot bitmap and retransmission horizons.
    """

    __slots__ = ("_ring", "_seen", "_head")

    def __init__(self):
        self._ring = [None] * _RECEIVE_MEMORY
        self._seen = set()
        self._head = 0

    def record(self, pkt_id):
        """Record a reception; returns True when the id is new."""
        seen = self._seen
        if pkt_id in seen:
            return False
        seen.add(pkt_id)
        head = self._head
        ring = self._ring
        evicted = ring[head]
        if evicted is not None:
            seen.discard(evicted)
        ring[head] = pkt_id
        self._head = (head + 1) % _RECEIVE_MEMORY
        return True

    def missing_bitmap(self, pkt_id):
        """ViFi's 1-byte bitmap: which of the 8 prior ids are missing."""
        seen = self._seen
        bitmap = 0
        for k in range(8):
            candidate = pkt_id - 1 - k
            if candidate >= 0 and candidate not in seen:
                bitmap |= 1 << k
        return bitmap


#: Ring depth of a :class:`_PacketBank` source — power of two so the
#: slot map is a mask.  Twice the ``_RECEIVE_MEMORY`` window; the relay
#: horizons it must span (ack windows, retransmission lifetimes) are
#: fractions of a second against thousands of fresh ids.  A ring holds
#: at most this many slots per source, grown with its ids (see
#: :class:`_SourceRing`).
_BANK_CAPACITY = 1024
_BANK_MASK = _BANK_CAPACITY - 1
#: Fewest slots a grown ring holds.
_RING_MIN_SLOTS = 64
#: ``_SourceRing.end`` once a ring holds all ``_BANK_CAPACITY`` slots:
#: past every id a run reaches, so the growth test stops firing (an id
#: beyond it only enters a ``_grow`` that has nothing to add).  Below
#: 2**30, so the test stays a single-digit int compare.
_RING_FULL_END = (1 << 30) - 1

# Per-row flag bits of a _PacketBank source ring.
_HEARD = 1       # an overheard data copy's time is in `heard`
_SUPPRESSED = 2  # an overheard ack retired this packet from relaying
_STORED = 4      # a relay decision is pending; candidate copy in `pkt`

#: For each 1-byte ack bitmap, the offsets ``1 + k`` of the prior ids
#: it reports received (bit k clear), ascending.
_RECEIVED_OFFSETS = tuple(
    tuple(k + 1 for k in range(8) if not bitmap & (1 << k))
    for bitmap in range(256)
)


class _SourceRing:
    """One source's packet rows inside a :class:`_PacketBank`.

    Six parallel columns, indexed by ``pkt_id & _BANK_MASK``.  They
    start empty and grow with the source's ids: a :meth:`claim` or
    :meth:`retire_received` of an id at or past :attr:`end` extends
    every column to the smallest power of two that holds the id, and
    to at least ``_RING_MIN_SLOTS`` slots; an id of ``_BANK_CAPACITY``
    or more extends them to all ``_BANK_CAPACITY`` slots at once, after
    which the ring only recycles slots.  A source's ids start at 0 and
    only rise, so a slot not yet allocated stands for one that holds
    the initial values (id -1, no flags, times 0.0, no copy, nothing
    considered): a grown ring answers every query as a preallocated
    one would, while a basestation that hears a source for a few
    hundred ids keeps a few hundred rows.
    """

    __slots__ = ("end", "ids", "flags", "heard", "stored_at", "pkt",
                 "considered")

    def __init__(self):
        #: Ids below this have their slot allocated; ``_RING_FULL_END``
        #: once every slot is.
        self.end = 0
        self.ids = []
        self.flags = []
        self.heard = []
        self.stored_at = []
        self.pkt = []
        self.considered = []

    def _grow(self, pkt_id):
        """Extend every column so that *pkt_id*'s slot exists."""
        size = min(max(_RING_MIN_SLOTS, 1 << pkt_id.bit_length()),
                   _BANK_CAPACITY)
        add = size - len(self.ids)
        if add > 0:
            self.ids += [-1] * add
            self.flags += [0] * add
            self.heard += [0.0] * add
            self.stored_at += [0.0] * add
            self.pkt += [None] * add
            self.considered += [None] * add
        self.end = _RING_FULL_END if size == _BANK_CAPACITY else size

    def claim(self, pkt_id):
        """Row index for *pkt_id*, recycling an older occupant.

        Returns -1 when the slot is owned by a *newer* id: the query is
        about a packet at least ``_BANK_CAPACITY`` ids stale, far
        outside every relay/ack horizon, and is dropped rather than
        allowed to clobber live state.
        """
        if pkt_id >= self.end:
            self._grow(pkt_id)
        i = pkt_id & _BANK_MASK
        cur = self.ids[i]
        if cur != pkt_id:
            if cur > pkt_id:
                return -1
            self.ids[i] = pkt_id
            self.flags[i] = 0
            self.pkt[i] = None
            self.considered[i] = None
        return i

    def probe(self, pkt_id):
        """Row index for *pkt_id* if it currently owns its slot; -1
        also for a slot past the columns' end."""
        if pkt_id >= self.end:
            return -1
        i = pkt_id & _BANK_MASK
        return i if self.ids[i] == pkt_id else -1

    def retire_received(self, pkt_id, bitmap):
        """Suppress the prior ids an ack's bitmap reports received.

        Each id in the 8-id window before *pkt_id* whose bitmap bit is
        clear is claimed under :meth:`claim`'s rules (ids below 0 and
        slots owned by a newer id are skipped; an older occupant is
        recycled) and retired from relaying: its pending decision and
        candidate copy go, its overhear time stays, since a direct ack
        for the older packet may still want a gap sample.
        """
        if pkt_id > self.end:
            self._grow(pkt_id - 1)
        ids = self.ids
        flags = self.flags
        pkt = self.pkt
        for offset in _RECEIVED_OFFSETS[bitmap]:
            candidate = pkt_id - offset
            if candidate < 0:
                break
            i = candidate & _BANK_MASK
            cur = ids[i]
            if cur == candidate:
                flags[i] = (flags[i] | _SUPPRESSED) & ~_STORED
            elif cur < candidate:
                ids[i] = candidate
                flags[i] = _SUPPRESSED
                self.considered[i] = None
            else:
                continue
            pkt[i] = None


class _PacketBank:
    """Ring/bitmap bookkeeping for the auxiliary-relay pipeline.

    The :class:`_ReceiverState` scheme generalized to the overhear /
    ack-suppression / relay-decision state a basestation keeps per
    overheard packet.  Instead of four dicts keyed by ``(src, pkt_id)``
    tuples (plus a periodic pruning scan to bound them), each source
    gets a ring of integer-indexed rows — slot = ``pkt_id & mask`` —
    carrying the overhear time, suppression and pending-decision flag
    bits, the stored relay candidate, and the tx_ids already
    considered.  Every query is a bound compare, a mask, a list index
    and an int compare; memory is at most ``_BANK_CAPACITY`` slots per
    source, grown with its ids (see :class:`_SourceRing`), so the
    pruning scans disappear.

    Eviction is by slot reuse: a row lives for ``_BANK_CAPACITY``
    packet ids of its source.  As with ``_ReceiverState``, the relay
    horizons (``RELAY_MAX_AGE_S`` 0.25 s, retransmission lifetimes under
    a couple of seconds) are orders of magnitude shorter than a
    1024-id window, so recycling diverges from the dict path only for
    copies or acks arriving absurdly late — the slow oracle suite
    asserts query-for-query equality against a reference dict
    implementation under protocol-shaped schedules.
    """

    __slots__ = ("_rings",)

    def __init__(self):
        self._rings = {}

    def ring(self, src):
        """The per-source ring, built on the first query for *src*.

        A basestation overhears the vehicle's upstream and the
        anchor's downstream in turn, so queries alternate between
        sources and a plain dict lookup serves them all.
        """
        ring = self._rings.get(src)
        if ring is None:
            ring = self._rings[src] = _SourceRing()
        return ring


class LinkSender:
    """Shared source-side engine (Section 4.7 and 4.8 behaviours).

    Maintains the FIFO of application packets, transmits "the earliest
    queued packet that is ready for transmission", retransmits
    unacknowledged packets when the adaptive timer expires (bounded by
    ``config.max_retx``), and processes bitmap acknowledgments.

    Packet state is columnar: pkt_ids are dense and monotone (one
    ``itertools.count`` per sender), so a packet's row is
    ``pkt_id - _base`` into five parallel lists — packet object,
    arrival time, per-copy tx ids and times, retransmission deadline.
    A row is live while its packet is set, and it has aired once its
    tx-id list exists (the list's length is its transmission count).
    An ack lookup is an index compare plus a column read instead of
    tuple hashing into a dict of per-packet objects, and the bitmap
    loop touches eight adjacent rows.  Completed rows become in-place
    tombstones (packet and transmission lists cleared); the transmit
    FIFO drops them lazily instead of ``deque.remove``-ing per
    completion (O(queue) per delivered packet under backlog), and the
    dead column prefix is sliced off every few thousand completions so
    memory tracks the live window.  Packet fates are recorded in
    :class:`~repro.core.stats.ViFiStats` only.

    Args:
        node: owning node (provides ``node_id``, ``ctx``,
            ``can_send_data`` and ``current_aux_snapshot``).
        direction: direction of the packets this sender originates.
        dst_provider: callable returning the current destination node
            id (the vehicle's anchor changes over time) or ``None``.
    """

    def __init__(self, node, direction, dst_provider):
        self.node = node
        self.ctx = node.ctx
        self.direction = direction
        self.dst_provider = dst_provider
        self._pkt_ids = itertools.count()
        self.queue = deque()
        # Columnar packet rows, indexed by pkt_id - _base: packet (None
        # once the row is dead), arrival time, per-copy tx ids and
        # times (parallel small lists, allocated on first transmission)
        # and next retransmission deadline.
        self._base = 0
        self._pkt = []
        self._arr = []
        self._txi = []
        self._txt = []
        self._nxt = []
        self._done_since_compact = 0
        # Unacked packets the link layer stopped retransmitting remain
        # eligible for salvaging (Section 4.5 transfers "any
        # unacknowledged packets ... received within a time threshold",
        # whether or not their retransmission budget is spent); their
        # rows are tombstoned and the packet parked here until the next
        # salvage request drains it, or until it is too old to salvage
        # (see _give_up).  Salvage requests reach only a basestation's
        # downstream sender, and only when salvaging is on, so no other
        # sender parks anything.
        self._retired = {}
        self._salvageable = (direction is Direction.DOWNSTREAM
                             and self.ctx.config.salvage_enabled)
        self._retx_event = None
        # Lazily validated min-heap of (next_retx, pkt_id): pushed on
        # every transmission, stale entries (completed packets, or
        # superseded retransmission times) skipped at the top.  The
        # timer re-arm — which runs on every pump, i.e. every frame
        # completion — is then O(1) amortized instead of a scan over
        # all pending packets.
        self._retx_heap = []

    # -- queueing ------------------------------------------------------

    def enqueue(self, payload, size_bytes, flow_id=0, seq=0, created_at=None,
                salvaged=False):
        """Accept one application packet; returns its pkt_id."""
        now = self.ctx.sim.now
        pkt_id = next(self._pkt_ids)
        packet = DataPacket(
            pkt_id=pkt_id,
            src=self.node.node_id,
            dst=-1,  # resolved at transmission time
            direction=self.direction,
            size_bytes=size_bytes,
            flow_id=flow_id,
            seq=seq,
            created_at=now if created_at is None else created_at,
            salvaged=salvaged,
            payload=payload,
        )
        self._pkt.append(packet)
        self._arr.append(now)
        self._txi.append(None)
        self._txt.append(None)
        self._nxt.append(0.0)
        self.queue.append(pkt_id)
        self.pump()
        return pkt_id

    # -- transmission --------------------------------------------------

    def pump(self):
        """Transmit the earliest ready packet if the interface is free."""
        queue = self.queue
        if not queue and not self._retx_heap:
            # Nothing queued and no retransmission armed (the heap
            # drains before the timer is ever cancelled): the pump
            # call that follows every frame completion — including
            # each beacon and ack — is a no-op.
            return
        if not self.node.can_send_data():
            return
        medium = self.ctx.medium
        if medium.queue_length(self.node.node_id) > 0:
            return
        now = self.ctx.sim.now
        config = self.ctx.config
        if self._done_since_compact >= 4096:
            self._done_since_compact = 0
            self._compact()
        pkt = self._pkt
        txi = self._txi
        nxt = self._nxt
        base = self._base
        # Reclaim completed head entries; mid-queue tombstones are
        # merely skipped below (they drain once they reach the head).
        # A negative index means the row was already compacted away —
        # dead by definition.  The queue is in pkt_id order, so once
        # the head row is live every later index is in range.
        while queue:
            idx = queue[0] - base
            if idx >= 0 and pkt[idx] is not None:
                break
            queue.popleft()
        chosen = -1
        max_tx = 1 + config.max_retx
        for pkt_id in queue:
            idx = pkt_id - base
            if pkt[idx] is None:
                continue
            sent = txi[idx]
            if sent is None:
                chosen = idx
                break
            if nxt[idx] <= now:
                if len(sent) >= max_tx:
                    # Retiring only tombstones the row — no deque
                    # mutation, so iterating on is safe.
                    self._give_up(idx, pkt_id)
                    continue
                chosen = idx
                break
        if chosen >= 0:
            self._transmit(chosen)
        self._arm_retx_timer()

    def _transmit(self, idx):
        now = self.ctx.sim.now
        dst = self.dst_provider()
        if dst is None:
            return
        tx_id = self.ctx.next_tx_id()
        packet = self._pkt[idx]
        packet.dst = dst
        packet.tx_id = tx_id
        txi = self._txi[idx]
        if txi is None:
            txi = self._txi[idx] = []
            self._txt[idx] = []
        txi.append(tx_id)
        self._txt[idx].append(now)
        wake = now + self.node.retx_timer.timeout()
        self._nxt[idx] = wake
        heapq.heappush(self._retx_heap, (wake, packet.pkt_id))
        aux = self.node.current_aux_snapshot()
        self.ctx.stats.on_source_tx(
            tx_id=tx_id,
            pkt_key=(self.node.node_id, packet.pkt_id),
            direction=self.direction,
            time=now,
            src=self.node.node_id,
            dst=dst,
            aux_designated=aux,
            created_at=packet.created_at,
            salvaged=packet.salvaged,
        )
        unicast_to = dst if self.ctx.config.unicast_data else None
        self.ctx.medium.send(self.node.node_id, packet,
                             unicast_to=unicast_to)

    def _give_up(self, idx, pkt_id):
        if self._salvageable:
            # Park only what a salvage request could still harvest:
            # unacked_within takes packets that arrived within the
            # salvage age, and the clock only grows, so an older packet
            # never leaves the pool that way.
            now = self.ctx.sim.now
            retired = self._retired
            retired[pkt_id] = (self._pkt[idx], self._arr[idx])
            self._retired = {key: entry for key, entry in retired.items()
                             if now - entry[1] <= SALVAGE_AGE_S}
        self._tombstone(idx)
        self.ctx.stats.on_give_up((self.node.node_id, pkt_id))

    def _tombstone(self, idx):
        """Mark a row dead, dropping its object references."""
        self._pkt[idx] = None
        self._txi[idx] = None
        self._txt[idx] = None
        # Compaction is deferred to the next pump(): callers cache the
        # column lists and base offset across a batch of completions.
        self._done_since_compact += 1

    def _compact(self):
        """Slice the dead row prefix off every column.

        Rows complete roughly in pkt_id order (FIFO service, bounded
        retransmission lifetimes), so the prefix covers almost all
        tombstones; running it every 4096 completions keeps the scan
        amortized O(1) per packet.
        """
        pkt = self._pkt
        n = len(pkt)
        k = 0
        while k < n and pkt[k] is None:
            k += 1
        if k == 0:
            return
        del pkt[:k]
        del self._arr[:k]
        del self._txi[:k]
        del self._txt[:k]
        del self._nxt[:k]
        self._base += k

    def _arm_retx_timer(self):
        """Keep one timer armed at the earliest retransmission time.

        The earliest time comes from the lazy heap: entries whose
        packet completed, retired, or was retransmitted since (its
        ``next_retx`` moved) are discarded from the top, so the heap's
        first valid entry is exactly ``min(next_retx)`` over live
        pending packets — the same wake time the old full scan found.
        """
        heap = self._retx_heap
        txi = self._txi
        base = self._base
        while heap:
            wake_at, pkt_id = heap[0]
            idx = pkt_id - base
            if idx >= 0 and txi[idx] is not None \
                    and self._nxt[idx] == wake_at:
                break
            heapq.heappop(heap)
        event = self._retx_event
        if not heap:
            if event is not None and event.active:
                event.cancel()
            return
        wake = max(heap[0][0], self.ctx.sim.now)
        if event is not None and event.active:
            if event.time == wake:
                return  # already armed at the right instant
            event.cancel()
        self._retx_event = self.ctx.sim.schedule_at(wake, self.pump)

    # -- acknowledgment processing --------------------------------------

    def on_ack(self, ack):
        """Process an ack addressed to this sender."""
        now = self.ctx.sim.now
        txi = self._txi
        base = self._base
        n = len(txi)
        pkt_id = ack.pkt_id
        idx = pkt_id - base
        if 0 <= idx < n and self._pkt[idx] is not None:
            sent = txi[idx]
            if sent is not None and ack.tx_id in sent:
                tx_time = self._txt[idx][sent.index(ack.tx_id)]
                self.node.retx_timer.add_sample(now - tx_time)
            self._complete(idx, pkt_id)
        # Bitmap: ids in the 8-slot window NOT flagged missing were
        # received; retire them without a delay sample.
        for offset in _RECEIVED_OFFSETS[ack.missing_bitmap]:
            candidate = pkt_id - offset
            if candidate < 0:
                break
            cidx = candidate - base
            if 0 <= cidx < n and txi[cidx] is not None:
                self._complete(cidx, candidate)
        self.pump()

    def _complete(self, idx, pkt_id):
        self._tombstone(idx)
        self.ctx.stats.on_src_ack((self.node.node_id, pkt_id))

    # -- salvaging support ----------------------------------------------

    def unacked_within(self, age_s):
        """Unacked packets that arrived here within *age_s* seconds.

        Used by the previous anchor to answer a salvage request: "the
        old anchor transfers any unacknowledged packets that were
        received from the Internet within a certain time threshold"
        (Section 4.5).  Covers both packets still in the transmit queue
        and packets whose retransmission budget is spent.  The packets
        are removed from this sender.
        """
        now = self.ctx.sim.now
        harvest = []
        pkt = self._pkt
        base = self._base
        kept = deque()
        for pkt_id in self.queue:
            idx = pkt_id - base
            if idx < 0 or pkt[idx] is None:
                continue  # tombstone: dropped while rebuilding anyway
            if now - self._arr[idx] <= age_s:
                harvest.append(pkt[idx])
                self._tombstone(idx)
            else:
                kept.append(pkt_id)
        self.queue = kept
        for pkt_id, (packet, arrival_at) in list(self._retired.items()):
            if now - arrival_at <= age_s:
                harvest.append(packet)
            del self._retired[pkt_id]
        harvest.sort(key=lambda p: p.pkt_id)
        return harvest


@dataclass
class _SalvageRequest:
    requester: int
    vehicle: int


@dataclass
class _SalvagePayload:
    packets: list


class _NodeBase:
    """Shared node behaviour: beaconing and probability estimation."""

    def __init__(self, node_id, ctx):
        self.node_id = node_id
        self.ctx = ctx
        self._sim = ctx.sim  # hot-path alias: reception dispatch
        # Fault plane (repro.sim.faults): a dead radio neither sends
        # nor receives over the medium; the wired side stays alive.
        # Both stay at their defaults for the whole run unless a
        # FaultPlane is installed, so nominal runs are bitwise intact.
        self.radio_down = False
        self.faults = None
        self.estimator = ctx.estimator_bank.view(node_id)
        self._note_beacon = self.estimator.on_beacon
        self.retx_timer = AdaptiveRetxTimer()  # the source timer, Section 4.7
        self._beacon_rng = ctx.rngs.stream("beacon-phase", node_id)
        self._phase = float(
            self._beacon_rng.uniform(0.0, BEACON_INTERVAL_S)
        )
        self._beacon_u = BufferedUniforms(self._beacon_rng).next
        self._receiver_states = {}  # src -> _ReceiverState

    def start(self):
        """Register with the beacon slotter and the estimator bank.

        Beacons ride the simulation's :class:`BeaconSlotter` (one heap
        event per occupied slot instead of one per node per beacon).
        The node has no per-second timer: the
        :class:`~repro.core.probabilities.EstimatorBank`'s single
        period-aligned event folds every estimator and drives every
        ``on_second`` hook — one heap event per second instead of one
        per node, with the first fold window exactly one second long.
        """
        self.ctx.beacon_slotter.add(self, self.ctx.sim.now + self._phase)
        self.ctx.estimator_bank.register(self)

    # -- timers ----------------------------------------------------------

    def _next_beacon_due(self, due):
        """Advance the nominal beacon due chain by one jittered interval."""
        interval = BEACON_INTERVAL_S
        # Generator.uniform(low, high) evaluates low + (high - low) * u.
        low, high = -0.05, 0.05
        jitter = (low + (high - low) * self._beacon_u()) * interval
        return due + max(interval + jitter, 1e-4)

    def _beacon_blocked(self):
        """Whether emission is fault-suppressed right now.

        The due chain advances (and draws its jitter) regardless, so a
        suppression window delays nothing in the nominal schedule.
        """
        faults = self.faults
        return self.radio_down or (
            faults is not None and faults.beacons_suppressed
        )

    def on_second(self):
        """Per-second hook for subclasses."""

    def _build_beacon(self):
        """Assemble one beacon frame from the node's current state."""
        now = self._sim.now
        incoming, learned = self.estimator.beacon_reports(now)
        # Positional: sender, sent_at, anchor_id, aux_ids,
        # prev_anchor_id, incoming, learned.
        beacon = Beacon(self.node_id, now, None, (), None, incoming,
                        learned)
        self.decorate_beacon(beacon)
        return beacon

    def decorate_beacon(self, beacon):
        """Subclass hook to add anchor/auxiliary designations."""

    # -- reception -------------------------------------------------------

    def on_data(self, packet):
        raise NotImplementedError

    def on_ack_frame(self, ack):
        raise NotImplementedError

    def on_transmit_complete(self, frame):
        """Medium callback: our frame finished airing."""

    # -- common helpers ----------------------------------------------------

    def can_send_data(self):
        raise NotImplementedError

    def current_aux_snapshot(self):
        raise NotImplementedError

    def _receiver_state(self, src):
        """The reception memory for *src*, built on its first reception."""
        state = self._receiver_states.get(src)
        if state is None:
            state = self._receiver_states[src] = _ReceiverState()
        return state

    def _send_ack(self, packet, receiver_state):
        if self.radio_down:
            # A wired delivery can still reach a radio-dead destination
            # (backplane relay); the ack is what the fault costs, so
            # the source falls back to retransmitting.
            return
        pkt_id = packet.pkt_id
        # Positional: pkt_id, acker, for_src, missing_bitmap, tx_id.
        ack = Ack(pkt_id, self.node_id, packet.src,
                  receiver_state.missing_bitmap(pkt_id), packet.tx_id)
        self.ctx.medium.send(self.node_id, ack, priority=True)


class VehicleNode(_NodeBase):
    """The mobile client: anchor selection, upstream source, downstream sink.

    The vehicle selects its anchor with BRR over the exponentially
    averaged beacon reception ratios (Section 4.3), designates every
    recently heard BS as an auxiliary, and announces anchor, auxiliary
    set, and previous anchor in its beacons.
    """

    def __init__(self, node_id, ctx):
        super().__init__(node_id, ctx)
        self.anchor_id = None
        self.prev_anchor_id = None
        self.aux_ids = ()
        self.upstream = LinkSender(
            self, Direction.UPSTREAM, dst_provider=lambda: self.anchor_id
        )
        self.downstream_sink = None

    # -- designations -----------------------------------------------------

    def on_second(self):
        self._update_designations()

    def _update_designations(self):
        now = self.ctx.sim.now
        estimates = {
            bs: p for bs, p in self.estimator.incoming_estimates().items()
            if bs in self.ctx.bs_ids
        }
        recent = [
            bs for bs in self.estimator.peers_heard_within(
                now, AUX_RECENT_S)
            if bs in self.ctx.bs_ids and bs != self.anchor_id
        ]
        self.aux_ids = tuple(sorted(recent))
        if not estimates:
            return
        best_bs, best_p = max(
            estimates.items(), key=lambda kv: (kv[1], -kv[0])
        )
        current_p = estimates.get(self.anchor_id, 0.0)
        should_switch = (
            self.anchor_id is None
            or current_p < MIN_ANCHOR_QUALITY
            or best_p > current_p * (1.0 + ANCHOR_HYSTERESIS)
        )
        if should_switch and best_bs != self.anchor_id \
                and best_p >= MIN_ANCHOR_QUALITY:
            if self.anchor_id is not None:
                self.prev_anchor_id = self.anchor_id
                self.ctx.stats.on_anchor_change()
            self.anchor_id = best_bs
            self.ctx.on_anchor_change(best_bs)
            self.upstream.pump()

    def decorate_beacon(self, beacon):
        beacon.anchor_id = self.anchor_id
        beacon.aux_ids = self.aux_ids
        beacon.prev_anchor_id = self.prev_anchor_id

    def can_send_data(self):
        return self.anchor_id is not None and not self.radio_down

    def current_aux_snapshot(self):
        return tuple(b for b in self.aux_ids if b != self.anchor_id)

    # -- app API ------------------------------------------------------------

    def send_upstream(self, payload, size_bytes, flow_id=0, seq=0):
        return self.upstream.enqueue(payload, size_bytes, flow_id=flow_id,
                                     seq=seq)

    # -- reception ------------------------------------------------------------

    def on_receive(self, frame, transmitter_id):
        # Specialized dispatch: the vehicle has no per-beacon protocol
        # hook (designation tracking is the BS side), so beacon
        # receptions — the bulk of all receptions — reduce to the
        # estimator note.
        if self.radio_down:
            return
        kind = frame.kind
        if kind is _BEACON:
            self._note_beacon(frame, self._sim.now)
        elif kind is _DATA:
            self.on_data(frame)
        elif kind is _ACK:
            self.on_ack_frame(frame)

    def on_data(self, packet):
        if packet.dst != self.node_id:
            return  # the vehicle never relays
        state = self._receiver_state(packet.src)
        fresh = state.record(packet.pkt_id)
        self.ctx.stats.on_dst_receive(
            packet.tx_id, (packet.src, packet.pkt_id), self.ctx.sim.now,
            via_relay=packet.relayed_by is not None,
        )
        self._send_ack(packet, state)
        if fresh and self.downstream_sink is not None:
            self.downstream_sink(packet, self.ctx.sim.now)

    def on_ack_frame(self, ack):
        if ack.for_src == self.node_id:
            self.upstream.on_ack(ack)

    def on_transmit_complete(self, frame):
        # Any of our frames leaving the interface (data, ack or beacon)
        # frees it for the next queued data packet.
        self.upstream.pump()


class BasestationNode(_NodeBase):
    """A basestation: anchor duties, auxiliary relaying, salvaging."""

    def __init__(self, node_id, ctx):
        super().__init__(node_id, ctx)
        self.is_anchor = False
        self.known_anchor = None
        self.known_aux = ()
        self.vehicle_id = None
        self.last_vehicle_beacon = None
        self.downstream = LinkSender(
            self, Direction.DOWNSTREAM, dst_provider=lambda: self.vehicle_id
        )
        # All overhear / suppression / pending-relay-decision state
        # lives in one ring-structured bank (see _PacketBank); at most
        # _BANK_CAPACITY slots per source, so no pruning timer is
        # needed.
        self._packets = _PacketBank()
        # BRR switches the auxiliary functionality off: overhears and
        # overheard acks are still recorded, but no relay candidate is
        # stored, no decision is scheduled and the ack-gap window that
        # only decisions read gets no samples.
        self._relaying = ctx.config.relay_enabled
        # Relay-timer jitter and relay decisions are this stream's only
        # draws, so serving them from blocks keeps every draw in place.
        self._relay_rng = ctx.rngs.stream("relay-coin", node_id)
        self._relay_u = BufferedUniforms(self._relay_rng).next
        # The "small window" of protocol step 3 is adaptive: the BS
        # tracks the gap between overhearing a data packet and
        # overhearing its ack, and waits out the bulk of that
        # distribution before deciding.  Under a saturated medium acks
        # air tens of milliseconds late; a fixed short window would
        # relay packets whose acks are merely queued (pure false
        # positives), while a fixed long window would delay relays that
        # interactive traffic needs.
        self._ack_gap = AdaptiveRetxTimer(
            initial_s=RELAY_INITIAL_WINDOW_S, floor_s=RELAY_MIN_AGE_S,
            percentile=RELAY_WINDOW_PERCENTILE, window=200,
        )

    # -- designation tracking (from vehicle beacons) -------------------------

    def on_receive(self, frame, transmitter_id):
        # Specialized dispatch: BS beacons (the majority of beacon
        # receptions) carry no designations, so the protocol hook call
        # is skipped for them after the estimator note.
        if self.radio_down:
            return
        kind = frame.kind
        if kind is _BEACON:
            self._note_beacon(frame, self._sim.now)
            if frame.anchor_id is not None or frame.aux_ids:
                self.on_beacon(frame)
        elif kind is _DATA:
            self.on_data(frame)
        elif kind is _ACK:
            self.on_ack_frame(frame)

    def on_beacon(self, beacon):
        if beacon.anchor_id is None and not beacon.aux_ids:
            return  # a BS beacon
        self.vehicle_id = beacon.sender
        self.known_anchor = beacon.anchor_id
        self.known_aux = tuple(beacon.aux_ids)
        self.last_vehicle_beacon = self.ctx.sim.now
        if beacon.anchor_id == self.node_id and not self.is_anchor:
            self.is_anchor = True
            if (self.ctx.config.salvage_enabled
                    and beacon.prev_anchor_id is not None
                    and beacon.prev_anchor_id != self.node_id):
                self._request_salvage(beacon.prev_anchor_id)
            self.downstream.pump()
        elif beacon.anchor_id != self.node_id and self.is_anchor:
            self.is_anchor = False

    def on_second(self):
        # Anchor belief decays if the vehicle has gone silent.
        if self.is_anchor and self.last_vehicle_beacon is not None:
            silent = self.ctx.sim.now - self.last_vehicle_beacon
            if silent > ANCHOR_BELIEF_TIMEOUT_S:
                self.is_anchor = False

    def can_send_data(self):
        return self.is_anchor and self.vehicle_id is not None \
            and not self.radio_down

    def current_aux_snapshot(self):
        return tuple(b for b in self.known_aux if b != self.node_id)

    def is_designated_aux(self):
        return self.node_id in self.known_aux and not self.is_anchor

    # -- internet-facing API ---------------------------------------------------

    def on_internet_packet(self, payload, size_bytes, flow_id=0, seq=0,
                           created_at=None, salvaged=False):
        """Accept a downstream packet from the wired side."""
        return self.downstream.enqueue(
            payload, size_bytes, flow_id=flow_id, seq=seq,
            created_at=created_at, salvaged=salvaged,
        )

    # -- reception ---------------------------------------------------------------

    def on_data(self, packet):
        if packet.dst == self.node_id:
            self._receive_as_destination(packet)
        else:
            self._overhear_as_auxiliary(packet)

    def on_backplane_data(self, packet):
        """An upstream relay arriving over the wired backplane."""
        if packet.dst != self.node_id:
            return
        self._receive_as_destination(packet)

    def _receive_as_destination(self, packet):
        state = self._receiver_state(packet.src)
        fresh = state.record(packet.pkt_id)
        self.ctx.stats.on_dst_receive(
            packet.tx_id, (packet.src, packet.pkt_id), self.ctx.sim.now,
            via_relay=packet.relayed_by is not None,
        )
        self._send_ack(packet, state)
        if fresh:
            self.ctx.gateway_deliver_upstream(packet)

    # -- auxiliary relaying (Section 4.3 step 3) ------------------------------

    def _overhear_as_auxiliary(self, packet):
        if packet.src == self.node_id:
            # A relayed copy of our own downstream packet.  Acks of our
            # packets go to the downstream sender, never to a ring, so
            # nothing would read what this copy could note.
            return
        now = self.ctx.sim.now
        ring = self._packets.ring(packet.src)
        row = ring.claim(packet.pkt_id)
        flags = 0
        if row >= 0:
            # Ack-gap sampling measures from the *latest* overheard
            # copy (original, retransmission or relay): every copy
            # triggers a fresh ack at the destination, and the window
            # must model per-copy ack latency, not retransmission
            # round trips.
            flags = ring.flags[row] | _HEARD
            ring.flags[row] = flags
            ring.heard[row] = now
        if packet.relayed_by is not None:
            return  # never relay a relay
        self.ctx.stats.on_aux_overhear(packet.tx_id, self.node_id,
                                       self.node_id in self.known_aux)
        if not self._relaying or not self.is_designated_aux():
            return
        vehicle, anchor = self.vehicle_id, self.known_anchor
        if anchor is None or vehicle is None:
            return
        if {packet.src, packet.dst} != {vehicle, anchor}:
            return  # not part of the vehicle's current conversation
        if row < 0:
            return  # ancient duplicate, far outside every relay horizon
        # "A packet is considered for relaying only once" — per
        # overheard transmission copy: a source retransmission is a
        # fresh copy and earns a fresh decision, but the same copy
        # never re-enters the pipeline.  Packets whose acks were
        # overheard stay suppressed whatever copy arrives.
        if flags & _SUPPRESSED:
            return
        considered = ring.considered[row]
        if considered is not None and packet.tx_id in considered:
            return
        if flags & _STORED:
            # A decision is already pending; refresh to the newest copy
            # so the relay (and its attribution) reflect the latest
            # transmission.  The decision clock (stored_at) keeps
            # running from the first stored copy.
            ring.pkt[row] = packet
            return
        delay = self._ack_window() \
            + RELAY_TIMER_INTERVAL_S * self._relay_u()
        ring.flags[row] = flags | _STORED
        ring.pkt[row] = packet
        ring.stored_at[row] = now
        # Relay decisions are never cancelled (suppression is checked
        # when the timer fires), so the handle-free event suffices.
        self.ctx.sim.schedule_fire(delay, self._relay_decision,
                                   (packet.src, packet.pkt_id))

    def _ack_window(self):
        """Current ack-wait window: clamped multiple of the median gap.

        Gaps mix direct acks (milliseconds) with acks to later
        retransmissions (tens of milliseconds), which waiting cannot
        recover; hence the median, times RELAY_WINDOW_MULTIPLIER.
        """
        window = self._ack_gap.timeout() * RELAY_WINDOW_MULTIPLIER
        return min(max(window, RELAY_MIN_AGE_S), RELAY_MAX_WINDOW_S)

    def on_ack_frame(self, ack):
        if ack.for_src == self.node_id:
            self.downstream.on_ack(ack)
            return
        # Overheard ack: suppress relaying of this packet and of any
        # earlier packet the bitmap reports as received.
        now = self.ctx.sim.now
        pkt_id = ack.pkt_id
        ring = self._packets.ring(ack.for_src)
        row = ring.claim(pkt_id)
        heard = False
        if row >= 0:
            flags = ring.flags[row]
            if flags & _HEARD:
                heard = True
                # Only relay decisions read the ack-gap window.
                if self._relaying:
                    self._ack_gap.add_sample(now - ring.heard[row])
            ring.flags[row] = (flags | _SUPPRESSED) & ~(_HEARD | _STORED)
            ring.pkt[row] = None
        if heard or self.node_id in self.known_aux:
            self.ctx.stats.on_aux_heard_ack((ack.for_src, pkt_id),
                                            self.node_id)
        ring.retire_received(pkt_id, ack.missing_bitmap)

    def _relay_decision(self, key):
        """Timer fired: decide once whether to relay the stored packet."""
        src, pkt_id = key
        ring = self._packets.ring(src)
        row = ring.probe(pkt_id)
        if row < 0 or not ring.flags[row] & _STORED:
            return  # suppressed by an overheard ack
        packet = ring.pkt[row]
        heard_at = ring.stored_at[row]
        now = self.ctx.sim.now
        # The adaptive window may have grown since this decision was
        # scheduled (the medium got busier); keep waiting until the
        # packet's age covers it, bounded by the staleness horizon.
        window = self._ack_window()
        age = now - heard_at
        if age < window and age < RELAY_MAX_AGE_S:
            self.ctx.sim.schedule_fire(
                min(window - age, RELAY_MAX_AGE_S - age) + 1e-4,
                self._relay_decision, key,
            )
            return
        ring.flags[row] &= ~_STORED
        ring.pkt[row] = None
        considered = ring.considered[row]
        if considered is None:
            considered = ring.considered[row] = []
        considered.append(packet.tx_id)
        if not self.is_designated_aux():
            return
        ctx = self.ctx
        aux_ids = tuple(a for a in self.known_aux
                        if a not in (packet.src, packet.dst))
        probability = ctx.relay_strategy.relay_probability(RelayContext(
            self_id=self.node_id,
            aux_ids=aux_ids,
            src=packet.src,
            dst=packet.dst,
            p=self.estimator.probability_lookup(now),
        ))
        relayed = bool(self._relay_u() < probability)
        ctx.stats.on_relay_decision(
            key, self.node_id, probability, relayed,
            trigger_tx_id=packet.tx_id,
        )
        if not relayed:
            return
        copy = packet.relay_copy(self.node_id)
        if packet.direction is Direction.UPSTREAM:
            dst_node = ctx.bs_node(packet.dst)
            if dst_node is not None:
                ctx.backplane.send(
                    self.node_id, packet.dst, copy, copy.size_bytes,
                    dst_node.on_backplane_data, category="relay",
                )
        elif not self.radio_down:
            # Downstream relays air over the radio; a dead radio drops
            # the relay (upstream relays above ride the wired plane,
            # which an outage leaves up).
            ctx.medium.send(self.node_id, copy)

    # -- salvaging (Section 4.5) ------------------------------------------------

    def _request_salvage(self, prev_anchor_id):
        prev_node = self.ctx.bs_node(prev_anchor_id)
        if prev_node is None:
            return
        request = _SalvageRequest(requester=self.node_id,
                                  vehicle=self.vehicle_id)
        self.ctx.backplane.send(
            self.node_id, prev_anchor_id, request, 64,
            prev_node.on_salvage_request, category="salvage-request",
        )

    def on_salvage_request(self, request):
        """Previous-anchor side: hand over recent unacked packets."""
        packets = self.downstream.unacked_within(SALVAGE_AGE_S)
        self.ctx.stats.on_salvage(len(packets))
        if not packets:
            return
        requester_node = self.ctx.bs_node(request.requester)
        if requester_node is None:
            return
        total = sum(p.size_bytes for p in packets)
        self.ctx.backplane.send(
            self.node_id, request.requester, _SalvagePayload(packets),
            total, requester_node.on_salvage_payload, category="salvage",
        )

    def on_salvage_payload(self, payload):
        """New-anchor side: treat salvaged packets as fresh arrivals."""
        for packet in payload.packets:
            self.on_internet_packet(
                packet.payload, packet.size_bytes,
                flow_id=packet.flow_id, seq=packet.seq,
                created_at=packet.created_at, salvaged=True,
            )

    def on_transmit_complete(self, frame):
        # See VehicleNode.on_transmit_complete: the interface is free
        # again whatever kind of frame just finished airing.
        self.downstream.pump()
