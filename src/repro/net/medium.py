"""The shared broadcast wireless medium.

All nodes (vehicle and basestations) share one 802.11 channel, as in the
paper's experiments ("All nodes were set to the same 802.11 channel",
Section 2.1).  The medium implements:

* **Broadcast transmission** at a fixed bitrate (1 Mbps, Section 5.1)
  with PLCP preamble overhead; every attached node is a potential
  receiver of every frame.
* **Per-link loss**: each ordered pair of nodes has a
  :class:`~repro.net.channel.LossProcess` in a :class:`LinkTable`;
  missing links never deliver (nodes out of range).
* **Carrier sense with random backoff**: ViFi uses broadcast frames,
  which disables 802.11's exponential backoff; "to reduce collisions,
  our implementation relies on carrier sense" (Section 4.8).  We model
  a single collision domain: a sender defers until the medium is idle,
  waits DIFS plus a uniform backoff, and transmits.  A frame airs only
  through a claim on an idle channel, so airtimes never overlap and no
  frame is lost to a collision.
* **Single pending frame per node**: the implementation "ensures that
  there is no more than one packet pending at the interface"
  (Section 4.8); additional frames queue in FIFO order.

The medium also keeps transmission counters per node and frame kind so
the efficiency analysis (Figure 12) can count every transmission on the
vehicle-BS channel.

**Fast path.**  Each transmitter's resolve rows (see below) hold its
in-range receivers (links whose expected loss rate is strictly below
1.0, from :meth:`LinkTable.in_range`), refreshed lazily every
:attr:`WirelessMedium.REACH_REFRESH_S`; they are the only way the
medium finds a frame's receivers: the stochastic channel runs only for
receivers that could possibly decode, and known-unreachable receivers
never touch their loss process.  Transmission and delivery accounting
is one count row per node, a list with one slot per frame kind indexed
by the frame's ``kind_index``; :attr:`WirelessMedium.tx_count` and
:attr:`WirelessMedium.delivered_count` build
:class:`collections.Counter` views keyed by (node, frame kind) from
those rows when read.

Fast paths riding on top:

* **Batched outcomes** — every process on a medium link supplies
  ``loss_eps_window(t)`` (state advance separated from the coin flip),
  so per-receiver uniforms come from one medium-owned RNG block
  instead of N private buffered streams; the per-link *state*
  randomness (burst chains, traces) keeps its own streams, so runs
  stay deterministic for a seed.
* **Merged transmissions** — every frame, broadcast or unicast, airs
  through a claim: the attempt/transmit/resolve triple collapses into
  a single heap event at the frame's end time, and the channel is
  claimed (``busy_until``) as soon as the frame's DIFS + backoff start
  is known, so later senders park behind the claim.  An uncontended
  frame claims when it is sent, a contended one when the busy period
  before it ends.
* **Struct-of-arrays resolve** — per-transmitter resolve rows are
  kept as struct-of-arrays (a python-float list of loss thresholds and
  per-row validity windows from ``loss_eps_window``), rebuilt only
  when a refresh changes the in-range set.  Resolving a frame is then one
  python-float compare per in-range receiver, of a uniform served from
  the medium's 256-uniform outcome blocks against its threshold, and
  only the hits (deliveries) run further code: a slot increment in the
  receiver's count row and its ``on_receive``.  With 5-12 receivers a
  frame, a numpy compare costs more in dispatch than it saves.
* **Backoff-freezing CSMA** — contenders draw one backoff when they
  start contending, freeze the remainder while the channel is busy,
  and resume on release, instead of redrawing and rescheduling an
  attempt event on every busy period.  Each busy period costs O(1)
  counter arithmetic per contender and every frame costs exactly one
  heap event (the merged resolve), contended or not; a unicast MAC
  retry is a new frame in this sense.
* **Slot-batch transmission** — whole co-scheduled broadcast batches
  (a beacon slot's emissions, handed over by the
  :class:`~repro.core.node.BeaconSlotter`) claim consecutive airtimes
  up front when the medium is idle and every emitter free, so the
  batch costs a *single* heap event.  Ineligible batches fall back to
  per-frame sends; receivers observe an accepted batch at its last
  frame's end (at most one slot late, the bound beacon slotting
  already accepts on the emission side).
"""

import math
from collections import Counter, deque

from repro.net.packet import FRAME_KIND_VALUES

__all__ = ["LinkTable", "WirelessMedium"]

#: Channel bitrate (bits/s): 1 Mbps, as the paper states (Section 5.1).
BITRATE_BPS = 1_000_000.0
#: 802.11b's long-preamble PLCP overhead, DIFS and backoff slot (s) and
#: its unicast contention-window ceiling (slots), which the paper does
#: not state (engineering).  Every frame reads them as module globals.
PLCP_OVERHEAD_S = 192e-6
DIFS_S = 50e-6
SLOT_TIME_S = 20e-6
MAX_CW_SLOTS = 1023

_EMPTY = {}


def _count_view(rows):
    """``(node, frame kind) -> count`` over per-node count rows.

    Kinds a node never counted are absent rather than zero, as in a
    :class:`~collections.Counter` that was only ever incremented.
    """
    return Counter({(node_id, kind): n
                    for node_id, row in rows.items()
                    for kind, n in zip(FRAME_KIND_VALUES, row) if n})


class LinkTable:
    """Loss processes for ordered node pairs.

    Links are registered with :meth:`set_link`; a pair that was never
    registered is out of range, and frames are never delivered on it.
    The table caches nothing: the medium keeps each transmitter's
    in-range receivers in its resolve rows.
    """

    #: The propagation :class:`~repro.net.propagation.LinkBank` behind
    #: this table's vehicle links, when a testbed built one (set by the
    #: builders; ``None`` for hand-assembled tables).  Exposed so
    #: benchmark harnesses can report prefill/build cost separately.
    link_bank = None

    def __init__(self):
        # src -> {dst: process}
        self._by_src = {}
        #: Bumped on every registration so callers caching derived
        #: state (the medium's resolve rows) notice new links.
        self.version = 0

    def set_link(self, src, dst, process):
        """Register the loss process for ``src -> dst``.

        *process* must not be ``None``: a pair out of range is one
        that is never registered.
        """
        if process is None:
            raise ValueError(f"link {src} -> {dst}: process is None")
        self._by_src.setdefault(src, {})[dst] = process
        self.version += 1

    def get(self, src, dst):
        """Return the loss process for ``src -> dst`` or ``None``."""
        return self._by_src.get(src, _EMPTY).get(dst)

    def in_range(self, src, t):
        """``[(dst, process), ...]`` for the links of *src* in range at
        *t*, sorted by dst.

        A link is in range when its expected loss rate is strictly
        below 1.0.  A process with a ``static_loss_rate`` answers from
        it; only the others are asked for ``loss_rate(t)``, in
        registration order.
        """
        pairs = []
        for dst, process in self._by_src.get(src, _EMPTY).items():
            # getattr: duck-typed processes (tests, ad-hoc models)
            # need not declare staticness.
            rate = getattr(process, "static_loss_rate", None)
            if rate is None:
                rate = process.loss_rate(t)
            if rate < 1.0:
                pairs.append((dst, process))
        pairs.sort()
        return pairs


class _ResolveRows:
    """Struct-of-arrays resolve rows for one transmitter.

    One row per in-range receiver, in sorted receiver-id order (the
    reproducible delivery order).  ``pairs`` is the
    :meth:`LinkTable.in_range` answer the rows were built from,
    ``version`` the table version at that time and ``expires`` the next
    in-range refresh.  The eps column holds each row's
    loss threshold as a python float; the object columns (ids,
    ``on_receive`` callbacks and the receivers' delivery count rows)
    back the short loop over hits.  A row's per-frame loss probability
    comes from its process's ``loss_eps_window``, which every process
    on a medium link supplies; the stored threshold is reused until
    ``valid_until``.
    """

    __slots__ = ("pairs", "version", "expires", "ids", "receive", "counts",
                 "window_fns", "eps", "valid_until", "min_valid", "n")

    def __init__(self, pairs, version, transmitter_id, nodes_by_id,
                 count_rows):
        self.pairs = pairs
        self.version = version
        self.expires = -math.inf
        ids, receive, counts, window_fns = [], [], [], []
        for receiver_id, process in pairs:
            if receiver_id == transmitter_id:
                continue
            node = nodes_by_id.get(receiver_id)
            if node is None:
                continue
            ids.append(receiver_id)
            receive.append(node.on_receive)
            counts.append(count_rows[receiver_id])
            window_fns.append(process.loss_eps_window)
        self.ids = ids
        self.receive = receive
        self.counts = counts
        self.window_fns = window_fns
        self.n = len(ids)
        self.eps = [0.0] * self.n
        # Validity bounds stay a python list (the refresh loop is
        # scalar anyway); ``min_valid`` gates the whole scan with one
        # float compare.  -inf forces a refresh on first use
        # (validity is t < bound).
        self.valid_until = [-math.inf] * self.n
        self.min_valid = -math.inf


class WirelessMedium:
    """Single-channel broadcast medium with CSMA and per-link losses.

    Args:
        sim: the :class:`~repro.sim.engine.Simulator`.
        links: a :class:`LinkTable`.
        rng: random stream for backoff draws.
        backoff_slots: contention window; backoff is uniform in
            ``[0, backoff_slots]`` slots.  Broadcast frames do not use
            exponential backoff (Section 4.8).
        mac_retry_limit: MAC retransmissions for *unicast* sends (the
            Section 5.1 ablation); broadcast frames never retry.  The
            exponential backoff stops at :data:`MAX_CW_SLOTS`.
        outcome_rng: stream for the batched per-receiver loss draws;
            defaults to *rng*.
    """

    #: Uniforms drawn per refill of the batched per-frame outcome
    #: buffer.
    _OUTCOME_BLOCK = 256

    #: How long a transmitter's in-range set stays valid (seconds).  A
    #: link whose expected loss rate is exactly 1.0 at refresh time is
    #: treated as unreachable until the next refresh, so a link coming
    #: back into range is noticed at most this much late.
    REACH_REFRESH_S = 0.25

    # Always zero (no frame is pre-drawn); bench/workloads.py reads them.
    predraw_planned_frames = predraw_fallback_frames = 0

    def __init__(self, sim, links, rng, backoff_slots=31, mac_retry_limit=4,
                 outcome_rng=None):
        self.sim = sim
        self.links = links
        self.rng = rng
        self.backoff_slots = int(backoff_slots)
        self.mac_retry_limit = int(mac_retry_limit)

        self._nodes = {}
        self._queues = {}
        self._complete_cb = {}  # node_id -> on_transmit_complete or None
        self._in_flight = {}  # merged frames claimed off their queue
        self._cw = {}  # unicast contention window per node
        self._busy_until = 0.0
        self._backoff_buf = None
        self._backoff_i = 0
        self._outcome_rng = outcome_rng if outcome_rng is not None else rng
        # src -> _ResolveRows: each transmitter's struct-of-arrays
        # rows, checked against the link table once per in-range
        # refresh instead of per frame.
        self._rows = {}
        # Per-frame outcome buffer, refilled _OUTCOME_BLOCK uniforms at
        # a time and held as python floats.
        self._outcome_buf = []
        self._outcome_i = 0

        # Backoff-freezing CSMA state: node_id -> ``[backoff_left_s,
        # seq]`` for every node parked behind a claimed channel.
        # ``backoff_left_s`` is its frozen remaining backoff, ``seq``
        # its contention entry order (the tie-break at release).
        self._contenders = {}
        self._cont_seq = 0

        # Slot batches: whole co-scheduled broadcast batches (typically
        # one beacon slot's emissions) claim consecutive airtimes up
        # front and cost one heap event.
        #: Batches accepted by :meth:`send_slot_batch` (not fallbacks).
        self.slot_batch_count = 0
        #: Frames carried by accepted batches.
        self.slot_batch_frames = 0

        # Count rows: node_id -> one slot per frame kind (indexed by
        # ``kind_index``) of transmissions on the vehicle-BS channel
        # and of deliveries, for the Figure 12 efficiency accounting.
        self._tx_rows = {}
        self._delivered_rows = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def attach(self, node):
        """Attach *node*; it must expose ``node_id`` and ``on_receive``."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already attached")
        self._nodes[node.node_id] = node
        self._queues[node.node_id] = deque()
        self._complete_cb[node.node_id] = getattr(
            node, "on_transmit_complete", None
        )
        self._in_flight[node.node_id] = 0
        self._cw[node.node_id] = self.backoff_slots
        self._tx_rows[node.node_id] = [0] * len(FRAME_KIND_VALUES)
        self._delivered_rows[node.node_id] = [0] * len(FRAME_KIND_VALUES)
        self._rows.clear()

    # ------------------------------------------------------------------
    # Transmission path
    # ------------------------------------------------------------------

    def airtime(self, size_bytes):
        """On-air duration of a frame of *size_bytes*."""
        return PLCP_OVERHEAD_S + (size_bytes * 8.0) / BITRATE_BPS

    def send(self, transmitter_id, frame, priority=False,
             unicast_to=None):
        """Queue *frame* for broadcast by *transmitter_id*.

        Priority frames (acknowledgments) jump the node's queue,
        mirroring 802.11's expedited access class for control traffic:
        an ack should never wait behind a backlog of data frames.

        With ``unicast_to`` set, the frame is sent 802.11-unicast
        style: if the named receiver fails to decode it, the MAC
        retries up to ``mac_retry_limit`` times, doubling the sender's
        contention window each time (reset on success).  Every
        receiver still overhears each attempt.  This models the
        standard behaviour the paper's broadcast-based framework
        deliberately avoids: "broadcast transmissions disable
        exponential backoff in response to losses" (Section 4.8), and
        immediate MAC retries tend to die inside the same loss burst
        (Section 4.3).
        """
        if transmitter_id not in self._nodes:
            raise KeyError(f"unknown transmitter {transmitter_id}")
        entry = (frame, unicast_to, 0)
        if priority:
            self._queues[transmitter_id].appendleft(entry)
        else:
            self._queues[transmitter_id].append(entry)
        self._freeze_contend(transmitter_id)

    # ------------------------------------------------------------------
    # Slot-batch transmission path
    # ------------------------------------------------------------------

    def send_slot_batch(self, entries):
        """Broadcast a slot's co-scheduled frames as one medium batch.

        *entries* is a sequence of ``(transmitter_id, frame)`` pairs —
        typically every beacon a :class:`~repro.core.node.BeaconSlotter`
        slot emits — in emission order.  When the batch path is
        eligible (see :meth:`_slot_batch_ready`) the frames claim
        consecutive DIFS+backoff-separated airtimes up front, cost a
        **single** heap event, and resolve together in
        :meth:`_slot_batch_resolve`.  Otherwise every entry falls back
        to a plain :meth:`send`, which is bitwise-identical to never
        having offered the batch.

        Fidelity trade-offs of the batch path (documented in
        PERFORMANCE.md): frames air in emission order rather than
        re-contending per frame (same-window contenders could never
        collide, as with merged transmissions), and receivers observe
        every frame of the batch at the last frame's end time — at
        most one slot late, the same bound beacon slotting already
        accepts on the emission side.
        """
        if len(entries) < 2 or not self._slot_batch_ready(entries):
            for transmitter_id, frame in entries:
                self.send(transmitter_id, frame)
            return
        start = self.sim.now
        batch = []
        for transmitter_id, frame in entries:
            backoff = self._draw_backoff(self._cw[transmitter_id]) \
                * SLOT_TIME_S
            air_start = start + DIFS_S + backoff
            self._in_flight[transmitter_id] += 1
            batch.append((transmitter_id, frame, air_start))
            start = air_start + self.airtime(frame.size_bytes)
        self._busy_until = start
        self.slot_batch_count += 1
        self.slot_batch_frames += len(batch)
        self.sim.schedule_fire_at(start, self._slot_batch_resolve, batch)

    def _slot_batch_ready(self, entries):
        """Whether a batch can claim the channel outright.

        The batch path needs an idle uncontended medium and every
        transmitter distinct and completely idle (empty queue, nothing
        in flight, not contending) — otherwise per-node FIFO order
        would be violated.
        """
        if self.sim.now < self._busy_until or self._contenders:
            return False
        seen = set()
        nodes = self._nodes
        queues = self._queues
        in_flight = self._in_flight
        for transmitter_id, frame in entries:
            if transmitter_id not in nodes or transmitter_id in seen:
                return False
            seen.add(transmitter_id)
            if queues[transmitter_id] or in_flight[transmitter_id]:
                return False
        return True

    def _slot_batch_resolve(self, batch):
        """Single-event tail of a slot batch: per-frame outcomes.

        Transmit accounting runs per frame, every frame's rows are
        looked up before any frame resolves (a lookup can refresh the
        in-range set, which queries loss processes; this is the order
        the realization is pinned with), and then each frame's
        outcomes are decided by :meth:`_resolve_outcomes`.
        """
        for transmitter_id, frame, _ in batch:
            self._in_flight[transmitter_id] -= 1
            self._count_tx(transmitter_id, frame)
        batch_rows = [self._resolve_rows(transmitter_id, air_start)
                      for transmitter_id, _, air_start in batch]
        for (transmitter_id, frame, air_start), rows in zip(batch,
                                                            batch_rows):
            self._resolve_outcomes(transmitter_id, frame, air_start, rows)
        for transmitter_id, frame, _ in batch:
            callback = self._complete_cb.get(transmitter_id)
            if callback is not None:
                callback(frame)
        if self._contenders:
            self._release_channel()
        for transmitter_id, _, _ in batch:
            self._freeze_contend(transmitter_id)

    def queue_length(self, transmitter_id):
        """Frames waiting, in backoff, or in the air at the given node.

        A frame claimed by the merged fast path leaves the python deque
        at claim time but still counts here until it resolves, so the
        one-frame-at-the-interface pacing (Section 4.8) is unchanged.
        """
        return len(self._queues[transmitter_id]) \
            + self._in_flight[transmitter_id]

    def _draw_backoff(self, window):
        """Backoff slot count, uniform in ``[0, window]``.

        Draws for the standard broadcast window are batched (bit-for-bit
        identical to scalar draws while only the standard window is in
        use) and held as python ints; grown unicast windows fall back
        to scalar draws.
        """
        if window == self.backoff_slots:
            buf = self._backoff_buf
            if buf is None or self._backoff_i >= len(buf):
                buf = self._backoff_buf = self.rng.integers(
                    0, window + 1, size=64
                ).tolist()
                self._backoff_i = 0
            value = buf[self._backoff_i]
            self._backoff_i += 1
            return value
        return int(self.rng.integers(0, window + 1))

    # ------------------------------------------------------------------
    # Backoff-freezing CSMA
    # ------------------------------------------------------------------

    def _freeze_contend(self, transmitter_id):
        """Enter contention for the node's head-of-queue frame.

        One backoff is drawn per contention entry.  A frame meeting an
        idle medium with no contender claims the channel at once for
        its DIFS + backoff start, so senders arriving during that
        window park behind the claim instead of racing it (a timing
        ambiguity inside one contention window; the later attempt
        would have seen the medium busy, so the two could never have
        collided).  Otherwise the node parks with its backoff frozen
        until :meth:`_release_channel` resumes it; the medium is idle
        with contenders parked only inside a resolve, whose release
        runs next.  A failed unicast attempt re-enters here from
        :meth:`_resolve` like a new frame.
        """
        contenders = self._contenders
        if transmitter_id in contenders or not self._queues[transmitter_id]:
            return
        backoff = self._draw_backoff(self._cw[transmitter_id]) \
            * SLOT_TIME_S
        now = self.sim.now
        if now >= self._busy_until and not contenders:
            self._claim_merged(transmitter_id, now + DIFS_S + backoff)
            return
        self._cont_seq += 1
        contenders[transmitter_id] = [backoff, self._cont_seq]

    def _claim_merged(self, transmitter_id, start):
        """Claim the channel for the node's head frame airing at *start*.

        The single transmit path for queued frames: the frame leaves
        the queue now (still counted by :meth:`queue_length` via
        ``_in_flight``), the channel is claimed through its end time,
        and one fire-and-forget resolve event covers transmit,
        delivery and unicast retry bookkeeping.
        """
        frame, unicast_to, attempt = self._queues[transmitter_id].popleft()
        self._in_flight[transmitter_id] += 1
        end = start + self.airtime(frame.size_bytes)
        self._busy_until = end
        self.sim.schedule_fire_at(end, self._merged_resolve,
                                  transmitter_id, frame, start,
                                  unicast_to, attempt)

    def _release_channel(self):
        """A busy period ended: resume frozen countdowns, pick a winner.

        The winner is the contender with the least remaining backoff
        (ties broken by contention entry order).  The channel is
        claimed for its head frame immediately, and the other
        contenders' remaining backoff drops by the winner's remainder
        — the idle slots they observed before the claim — in O(1) per
        contender.
        """
        contenders = self._contenders
        if not contenders:
            return
        now = self.sim.now
        if now < self._busy_until:
            return  # reclaimed already
        win_id = min(contenders, key=contenders.__getitem__)
        backoff_left = contenders.pop(win_id)[0]
        for record in contenders.values():
            left = record[0] - backoff_left
            record[0] = left if left > 0.0 else 0.0
        self._claim_merged(win_id, now + DIFS_S + backoff_left)

    def _merged_resolve(self, transmitter_id, frame, start, unicast_to,
                        attempt):
        """Single-event tail of a claimed transmission."""
        self._in_flight[transmitter_id] -= 1
        self._count_tx(transmitter_id, frame)
        self._resolve(transmitter_id, frame, start, unicast_to, attempt)
        if self._contenders:
            self._release_channel()
        self._freeze_contend(transmitter_id)

    def _resolve_rows(self, transmitter_id, t):
        """The transmitter's struct-of-arrays rows, valid at *t*.

        The rows carry their own expiry, so the per-frame cost is one
        dict lookup and a float compare; once they expire (or a link
        was registered since), :meth:`LinkTable.in_range` is asked
        again (queries must be monotone in *t*, as simulation time is).
        A refresh that leaves the in-range membership unchanged (the
        common case between handoffs) keeps the existing rows object —
        its thresholds and validity windows carry over, since they are
        properties of the unchanged processes.
        """
        rows = self._rows.get(transmitter_id)
        version = self.links.version
        if rows is not None and t < rows.expires \
                and rows.version == version:
            return rows
        pairs = self.links.in_range(transmitter_id, t)
        if rows is None or rows.version != version or rows.pairs != pairs:
            rows = _ResolveRows(pairs, version, transmitter_id, self._nodes,
                                self._delivered_rows)
            self._rows[transmitter_id] = rows
        rows.expires = t + self.REACH_REFRESH_S
        return rows

    def _refresh_row_thresholds(self, rows, start):
        """Re-evaluate eps for rows whose validity window lapsed.

        Rows inside their ``loss_eps_window`` bound keep their stored
        threshold; lapsed rows re-query the process at *start* (one
        call per stale row — bitwise-safe because a skipped no-flip
        state advance consumes no randomness and a pending flip caps
        the window).
        """
        valid_until = rows.valid_until
        window_fns = rows.window_fns
        eps = rows.eps
        min_valid = math.inf
        for i in range(rows.n):
            bound = valid_until[i]
            if bound <= start:
                eps[i], bound = window_fns[i](start)
                valid_until[i] = bound
            if bound < min_valid:
                min_valid = bound
        rows.min_valid = min_valid

    def _draw_outcomes(self, n):
        """*n* uniforms off the batched outcome stream, as python floats.

        The generator is consumed in blocks of :attr:`_OUTCOME_BLOCK`
        uniforms; a request that outruns the buffer takes its tail,
        then as many fresh blocks as it needs.
        """
        buf = self._outcome_buf
        i = self._outcome_i
        end = i + n
        if end <= len(buf):
            self._outcome_i = end
            return buf[i:end]
        out = buf[i:]
        need = end - len(buf)
        block = self._OUTCOME_BLOCK
        while True:
            fresh = self._outcome_rng.random(block).tolist()
            if need <= block:
                self._outcome_buf = fresh
                self._outcome_i = need
                out += fresh[:need]
                return out
            out += fresh
            need -= block

    def _resolve_outcomes(self, transmitter_id, frame, start, rows,
                          unicast_to=None):
        """Decide *frame*'s fate at each in-range receiver.

        The one outcome decision for merged and slot-batch frames:
        rows whose validity window lapsed refresh their thresholds, one
        uniform per row off the per-frame outcome buffer is compared
        against the row's threshold, and only the hits (deliveries)
        run further code.  Returns whether *unicast_to* decoded the
        frame.
        """
        n = rows.n
        if not n:
            return False
        if start >= rows.min_valid:
            # At least one row's validity window lapsed: refresh those
            # thresholds (the only per-row call a resolve ever makes on
            # the loss side).
            self._refresh_row_thresholds(rows, start)
        u = self._draw_outcomes(n)
        eps = rows.eps
        ids = rows.ids
        receive = rows.receive
        counts = rows.counts
        kind = frame.kind_index
        unicast_delivered = False
        for i in range(n):
            if not u[i] >= eps[i]:
                continue
            if ids[i] == unicast_to:
                unicast_delivered = True
            counts[i][kind] += 1
            receive[i](frame, transmitter_id)
        return unicast_delivered

    def _resolve(self, transmitter_id, frame, start, unicast_to, attempt):
        """Outcomes, unicast retry bookkeeping and sender completion."""
        rows = self._resolve_rows(transmitter_id, start)
        delivered = self._resolve_outcomes(transmitter_id, frame, start,
                                           rows, unicast_to)
        if unicast_to is not None:
            if delivered:
                self._cw[transmitter_id] = self.backoff_slots
            elif attempt < self.mac_retry_limit:
                # MAC retry: double the contention window and put the
                # frame back at the head of the queue.
                self._cw[transmitter_id] = min(
                    2 * self._cw[transmitter_id] + 1, MAX_CW_SLOTS
                )
                self._queues[transmitter_id].appendleft(
                    (frame, unicast_to, attempt + 1)
                )
                self._freeze_contend(transmitter_id)
                return  # completion deferred until MAC gives up
            else:
                # Retry budget exhausted; reset for the next frame.
                self._cw[transmitter_id] = self.backoff_slots
        callback = self._complete_cb.get(transmitter_id)
        if callback is not None:
            callback(frame)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _count_tx(self, transmitter_id, frame):
        self._tx_rows[transmitter_id][frame.kind_index] += 1

    @property
    def tx_count(self):
        """Transmissions per ``(node, frame kind)``, as a
        :class:`~collections.Counter` built from the count rows on
        each read (no zero entries; changing it changes nothing)."""
        return _count_view(self._tx_rows)

    @property
    def delivered_count(self):
        """Deliveries per ``(receiver, frame kind)``, built like
        :attr:`tx_count`."""
        return _count_view(self._delivered_rows)

    def transmissions(self, kind=None, node_id=None):
        """Total transmissions, optionally filtered by kind / node.

        Sums the matching :attr:`tx_count` entries, one per (node,
        frame kind) pair seen.
        """
        return sum(n for (node, frame_kind), n in self.tx_count.items()
                   if (kind is None or frame_kind == kind)
                   and (node_id is None or node == node_id))
