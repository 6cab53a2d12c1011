"""Reception-probability estimation and dissemination (Section 4.6).

"A ViFi node estimates the reception probability from another node to
itself using the number of beacons received in a given time interval
divided by the number that must have been sent.  Incoming reception
probabilities are maintained as exponential averages (alpha = 0.5) over
per-second beacon reception ratio.  In their beacons, nodes embed the
current incoming reception probability from all nodes that they heard
from in the last interval.  They also embed the packet reception
probability from them to other nodes, which they learn from the beacons
of those other nodes."

So a single beacon from node X teaches a listener both ``p(* -> X)``
(X's first-hand incoming estimates) and ``p(X -> *)`` (X's second-hand
knowledge of its outgoing quality).  An auxiliary therefore learns every
probability the relay computation needs purely by listening, with no
extra coordination traffic.

**Fast path.**  A bank view batches beacon ingest per beacon round: a
received beacon is appended to a pending list (one list append on the
per-frame path) and folded into the view's tables the next time any
query runs — queries are an order of magnitude rarer than receptions,
and the fold runs with locals bound once per batch.  All read paths
flush first, so observable state is identical to eager ingest.  On
top of that, :meth:`BankedReceptionEstimator.beacon_reports` caches
the two maps a beacon embeds: the ``incoming`` map only changes at a
fold and the ``learned`` map only when a peer reports fresh outgoing
knowledge or an entry crosses the staleness horizon, so both are
cached with exact invalidation bounds instead of being rebuilt for
every one of the ~10 beacons a node sends per second.

Relay decisions read the estimator only through
:meth:`~BankedReceptionEstimator.probability_lookup`; the Eq. 1-3
arithmetic lives in :mod:`repro.core.relaying` alone.

**The bank and its oracle.**  A protocol run keeps one
:class:`EstimatorBank`: node ids map to integer rows, per-second heard
counts live in one ``(N, N)`` array, and a **single** per-second
simulator event folds every node's exponential averages in one
vectorized pass.  Its fold event is period-aligned with its own window
(the first fold covers exactly one second), and a peer silent past the
staleness horizon is dropped from every per-node table, so per-peer
state stays bounded by the live-peer count.  Nodes query it through
per-node :class:`BankedReceptionEstimator` views.

:class:`ReceptionEstimator` is the plain per-node dict estimator the
bank must match, with none of the bank's batching or caches.  A view
and a :class:`ReceptionEstimator` fed the same beacons and ticked at
the same instants agree bit for bit on every query the protocol uses,
so ``tests/test_core_probabilities.py`` checks the bank's batching and
caches against uncached answers.  The oracle serves as that reference
only; unlike the bank it never prunes per-peer state.
"""

import math
import time

import numpy as np

__all__ = ["EstimatorBank", "ReceptionEstimator"]


class ReceptionEstimator:
    """Per-node estimator and dissemination table for ``p(a -> b)``.

    The reference oracle for :class:`EstimatorBank` views (see the
    module docstring); protocol runs use the bank.  It keeps the rule
    and none of the bank's caches: each beacon is ingested as it
    arrives, and both beacon maps are rebuilt on every call.

    Args:
        node_id: owning node.
        beacons_per_second: nominal beacon rate of every node (the
            "number that must have been sent" per second).
        alpha: exponential averaging factor (paper: 0.5).
        stale_s: age after which a table entry is distrusted.
        forget_below: incoming averages below this are dropped, so BSes
            left behind stop being considered.
    """

    def __init__(self, node_id, beacons_per_second=10, alpha=0.5,
                 stale_s=5.0, forget_below=0.01):
        self.node_id = node_id
        self.beacons_per_second = int(beacons_per_second)
        self.alpha = float(alpha)
        self.stale_s = float(stale_s)
        self.forget_below = float(forget_below)
        self._heard_this_second = {}
        self._incoming = {}
        self._last_heard = {}
        # Dissemination state is the latest report maps of each sender,
        # stored by reference: ``sender -> (arrived_at, incoming,
        # learned)``.  Queries combine the two possible sources for
        # ``p(a -> b)`` — b's first-hand ``incoming[a]`` and a's
        # second-hand ``learned[b]`` — newest fresh report winning.
        self._reports = {}
        # This node's outgoing quality p(self -> peer) as last reported
        # by each peer, for beacon construction.
        self._outgoing = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def on_beacon(self, beacon, now):
        """Record one received beacon."""
        sender = beacon.sender
        heard = self._heard_this_second
        heard[sender] = heard.get(sender, 0) + 1
        self._last_heard[sender] = now
        self._reports[sender] = (now, beacon.incoming, beacon.learned)
        # Reports about this node itself are kept too: the sender's
        # ``incoming[self]`` is p(self -> sender), i.e. this node's own
        # *outgoing* quality, which it cannot measure first-hand and
        # which the relay computation needs (p(Bx -> dst)).
        mine = beacon.incoming.get(self.node_id)
        if mine is not None:
            self._outgoing[sender] = (mine, now)

    def tick_second(self, now):
        """Fold the elapsed second into the exponential averages.

        Every known peer contributes a sample: its beacon reception
        ratio this second, zero if silent.  Peers whose average decays
        below ``forget_below`` are forgotten.
        """
        peers = set(self._incoming) | set(self._heard_this_second)
        for peer in peers:
            ratio = min(
                self._heard_this_second.get(peer, 0)
                / self.beacons_per_second,
                1.0,
            )
            previous = self._incoming.get(peer, 0.0)
            self._incoming[peer] = (
                self.alpha * ratio + (1 - self.alpha) * previous
            )
        self._heard_this_second = {}
        for peer in [p for p, v in self._incoming.items()
                     if v < self.forget_below]:
            del self._incoming[peer]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def incoming_probability(self, peer):
        """First-hand estimate of ``p(peer -> self)``."""
        return self._incoming.get(peer, 0.0)

    def incoming_estimates(self):
        """Snapshot of all first-hand incoming estimates."""
        return dict(self._incoming)

    def heard_recently(self, peer, now, within_s):
        """Was a beacon from *peer* heard within the last *within_s*?"""
        last = self._last_heard.get(peer)
        return last is not None and (now - last) <= within_s

    def peers_heard_within(self, now, within_s):
        """All peers whose beacons were heard within *within_s*."""
        return [
            peer for peer, last in self._last_heard.items()
            if (now - last) <= within_s
        ]

    def probability(self, a, b, now):
        """Best known estimate of ``p(a -> b)``; 0 when unknown/stale.

        First-hand knowledge (``b`` is this node) wins; otherwise the
        dissemination table is consulted, subject to freshness.
        """
        if a == b:
            return 1.0
        if b == self.node_id:
            return self._incoming.get(a, 0.0)
        stale_s = self.stale_s
        reports = self._reports
        best = 0.0
        best_ts = None
        from_b = reports.get(b)
        if from_b is not None and now - from_b[0] <= stale_s:
            prob = from_b[1].get(a)
            if prob is not None:
                best = prob
                best_ts = from_b[0]
        from_a = reports.get(a)
        if from_a is not None and now - from_a[0] <= stale_s:
            prob = from_a[2].get(b)
            if prob is not None and (best_ts is None or from_a[0] > best_ts):
                best = prob
        return best

    def probability_lookup(self, now):
        """A ``(a, b) -> p`` callable bound to the current time."""
        def lookup(a, b):
            return self.probability(a, b, now)
        return lookup

    # ------------------------------------------------------------------
    # Beacon payload construction
    # ------------------------------------------------------------------

    def beacon_reports(self, now):
        """Build the (incoming, learned) maps to embed in a beacon.

        ``incoming`` carries this node's first-hand estimates
        ``p(peer -> self)``; ``learned`` carries its second-hand
        knowledge of its own outgoing quality ``p(self -> peer)``,
        restricted to fresh reports.
        """
        stale_s = self.stale_s
        learned = {
            peer: prob for peer, (prob, ts) in self._outgoing.items()
            if now - ts <= stale_s
        }
        return dict(self._incoming), learned


class EstimatorBank:
    """Simulation-wide struct-of-arrays reception estimator.

    One bank serves every node: node ids map to integer rows through
    :attr:`index`, the per-second heard counts live in one ``(N, N)``
    array, and the exponential averages live in :attr:`incoming`
    (``incoming[i, j]`` is node *i*'s first-hand estimate of
    ``p(j -> i)``).  The fold — one :meth:`tick_second` — is a
    **single** per-second simulator event for every node: each view's
    pending beacon batch is flushed, the heard counts are scattered
    with one ``bincount`` per node, and the averages fold in one
    vectorized pass whose arithmetic (``alpha * ratio + (1 - alpha) *
    previous`` over ``min(count / beacons_per_second, 1.0)``) is
    term-for-term the :class:`ReceptionEstimator` fold, so a view and
    the oracle fed the same beacons and ticked at the same instants
    agree bit for bit.

    Two properties of the protocol-facing bank:

    * **Period-aligned first fold.**  The bank arms its own event one
      second after the first node registers, so the first fold window
      is exactly one second long and early estimates are unbiased.
    * **Bounded peer state.**  A peer silent past the staleness
      horizon can no longer affect any query (``probability`` rejects
      its reports, ``beacon_reports`` rebuilds skip it), so each fold
      drops its reports/outgoing entries; per-node dissemination
      state stays bounded by the live-peer count instead of growing
      with every peer ever heard.  Consequently recency queries
      (:meth:`BankedReceptionEstimator.heard_recently`) beyond
      ``stale_s`` answer ``False``; the protocol only asks within
      ``aux_recent_s`` (2 s against a 5 s horizon).

    The node universe is closed at construction: every beacon sender
    must be one of *node_ids* (the protocol registers the vehicle and
    all basestations up front).

    Args:
        node_ids: all participating node ids, in row order.
        beacons_per_second / alpha / stale_s / forget_below: as for
            :class:`ReceptionEstimator`.
        sim: optional simulator; when given, the bank arms its single
            per-second event on the first :meth:`register` call.
            Standalone (unit-test) banks call :meth:`tick_second`
            directly.
    """

    def __init__(self, node_ids, beacons_per_second=10, alpha=0.5,
                 stale_s=5.0, forget_below=0.01, sim=None):
        self.ids = tuple(node_ids)
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise ValueError("duplicate node ids in estimator bank")
        n = len(self.ids)
        self.n = n
        self.beacons_per_second = int(beacons_per_second)
        self.alpha = float(alpha)
        self.stale_s = float(stale_s)
        self.forget_below = float(forget_below)
        self.sim = sim
        #: ``incoming[i, j]`` = row-i node's exponential average of
        #: ``p(j -> i)``; zero cells are unknown/forgotten peers.
        self.incoming = np.zeros((n, n), dtype=np.float64)
        # Per-second heard counts, scattered from the views' row
        # buffers at fold time (float64 so the fold needs no cast).
        self._heard = np.zeros((n, n), dtype=np.float64)
        #: Folds run and wall seconds spent folding — reported by
        #: ``bench/`` as ``core.probabilities.fold_s``.
        self.fold_count = 0
        self.fold_wall_s = 0.0
        self._views = {}
        self._nodes = []
        self._tick_scheduled = False

    def view(self, node_id):
        """The per-node facade for *node_id* (created on first use)."""
        facade = self._views.get(node_id)
        if facade is None:
            if node_id not in self.index:
                raise KeyError(f"node {node_id!r} is not in this bank")
            facade = self._views[node_id] = \
                BankedReceptionEstimator(self, node_id)
        return facade

    def register(self, node):
        """Register a protocol node for the shared per-second tick.

        The first registration arms the bank's single fire-and-forget
        event exactly one second ahead (period-aligned: the first fold
        window is one second long — the first-tick bugfix).  Each tick
        folds every view, then calls every registered node's
        ``on_second`` hook in registration order.
        """
        self._nodes.append(node)
        if not self._tick_scheduled:
            if self.sim is None:
                raise ValueError(
                    "EstimatorBank.register needs a simulator; "
                    "standalone banks drive tick_second directly"
                )
            self._tick_scheduled = True
            self.sim.schedule_fire(1.0, self._tick)

    def _tick(self):
        now = self.sim.now
        self.tick_second(now)
        for node in self._nodes:
            node.on_second()
        self.sim.schedule_fire(1.0, self._tick)

    def tick_second(self, now):
        """Fold the elapsed second for every node in one pass."""
        t0 = time.perf_counter()
        n = self.n
        heard = self._heard
        heard[:] = 0.0
        views = self._views.values()
        for facade in views:
            if facade._pending:
                facade._flush()
            rows = facade._heard_rows
            if rows:
                heard[facade._row] = np.bincount(rows, minlength=n)
                del facade._heard_rows[:]
        # Same expressions, same IEEE-754 ops as the oracle's fold:
        # ratio = min(count / bps, 1.0); avg = alpha*ratio +
        # (1-alpha)*previous (addition order is commutative bitwise).
        ratio = np.minimum(heard / float(self.beacons_per_second), 1.0)
        incoming = self.incoming
        incoming *= (1.0 - self.alpha)
        incoming += self.alpha * ratio
        # Forgetting: the oracle deletes averages below the threshold;
        # zero cells answer queries identically.
        incoming[incoming < self.forget_below] = 0.0
        for facade in views:
            facade._on_fold(now)
        self.fold_count += 1
        self.fold_wall_s += time.perf_counter() - t0


class BankedReceptionEstimator:
    """Per-node view onto an :class:`EstimatorBank`.

    Drop-in for :class:`ReceptionEstimator` on every query path the
    protocol uses.  First-hand state (heard counts, exponential
    averages) lives in the bank's shared arrays; dissemination state
    (latest report per sender, outgoing quality, the copy-on-write
    ``learned`` map) stays per-node, stored by reference exactly like
    the oracle's — but pruned at each fold once a peer falls past the
    staleness horizon, so it is bounded by the live-peer count.

    Beacon ingest appends to the per-node pending buffer; queries
    flush first, so observable state is identical to eager ingest.
    Heard counts are one list append per beacon (scattered via
    ``bincount`` at the fold), and there is no ``_last_heard`` map:
    recency queries read the report timestamps, which flush writes
    anyway.
    """

    __slots__ = (
        "bank", "node_id", "_row", "_row_view", "_row_floats", "_index",
        "stale_s", "_pending", "_heard_rows", "_reports", "_outgoing",
        "_incoming_snapshot", "_learned_live", "_learned_shared",
        "_learned_expiry",
    )

    def __init__(self, bank, node_id):
        self.bank = bank
        self.node_id = node_id
        self._row = bank.index[node_id]
        # A view into the bank's matrix: the fold mutates in place, so
        # the row view is always current.  The python-float copy of it
        # is rebuilt lazily once per fold — averages only change
        # at folds — so scalar reads skip per-call numpy extraction.
        self._row_view = bank.incoming[self._row]
        self._row_floats = None
        self._index = bank.index
        self.stale_s = bank.stale_s
        self._pending = []
        self._heard_rows = []
        # sender -> (arrived_at, incoming, learned), by reference —
        # the report maps double as the last-heard clock.
        self._reports = {}
        self._outgoing = {}
        self._incoming_snapshot = None
        # Incrementally maintained beacon ``learned`` map: flush keeps
        # it current; a full rebuild only runs when the earliest
        # staleness expiry passes (see beacon_reports).  Once handed to
        # a beacon the map is *shared* — receivers keep it by
        # reference — so the next mutation copies first (copy-on-write)
        # and sent beacons stay frozen.
        self._learned_live = {}
        self._learned_shared = False
        self._learned_expiry = math.inf

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def on_beacon(self, beacon, now):
        """Record one received beacon; folded in at the next query."""
        self._pending.append((beacon, now))

    def _flush(self):
        """Fold the pending beacon batch into the tables, in order."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        rows = self._heard_rows
        index = self._index
        reports = self._reports
        outgoing = self._outgoing
        learned_live = self._learned_live
        node_id = self.node_id
        stale_s = self.stale_s
        learned_expiry = self._learned_expiry
        for beacon, now in pending:
            sender = beacon.sender
            rows.append(index[sender])
            incoming = beacon.incoming
            reports[sender] = (now, incoming, beacon.learned)
            mine = incoming.get(node_id)
            if mine is not None:
                outgoing[sender] = (mine, now)
                if self._learned_shared:
                    learned_live = self._learned_live = dict(learned_live)
                    self._learned_shared = False
                learned_live[sender] = mine
                expires = now + stale_s
                if expires < learned_expiry:
                    learned_expiry = expires
        self._learned_expiry = learned_expiry

    def _row_list(self):
        """This node's averages as python floats (cached per fold)."""
        row = self._row_floats
        if row is None:
            row = self._row_floats = self._row_view.tolist()
        return row

    def _on_fold(self, now):
        """Bank callback after the vectorized fold of one second."""
        self._incoming_snapshot = None
        self._row_floats = None
        # Bounded peer state: a report past the staleness horizon can
        # never be served again (probability rejects it, the learned
        # rebuild skips it), so drop it — and the peer's outgoing
        # entry — instead of keeping every peer ever heard.
        stale_s = self.stale_s
        reports = self._reports
        if reports:
            dead = [s for s, rep in reports.items()
                    if now - rep[0] > stale_s]
            for s in dead:
                del reports[s]
        outgoing = self._outgoing
        if outgoing:
            dead = [s for s, (_, ts) in outgoing.items()
                    if now - ts > stale_s]
            for s in dead:
                del outgoing[s]

    def tick_second(self, now):
        """Fold the elapsed second — for the *whole* owning bank.

        Standalone convenience that makes a view a drop-in for
        :class:`ReceptionEstimator` in unit scenarios; the protocol
        never calls it (the bank's own per-second event folds every
        view at once).
        """
        self.bank.tick_second(now)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def incoming_probability(self, peer):
        """First-hand estimate of ``p(peer -> self)``."""
        j = self._index.get(peer)
        return self._row_list()[j] if j is not None else 0.0

    def incoming_estimates(self):
        """Snapshot of all first-hand incoming estimates."""
        ids = self.bank.ids
        return {ids[j]: value
                for j, value in enumerate(self._row_list())
                if value}

    def heard_recently(self, peer, now, within_s):
        """Was a beacon from *peer* heard within the last *within_s*?

        Answers from the report clock; peers silent past ``stale_s``
        are pruned, so horizons beyond it saturate at ``False``.
        """
        if self._pending:
            self._flush()
        rep = self._reports.get(peer)
        return rep is not None and (now - rep[0]) <= within_s

    def peers_heard_within(self, now, within_s):
        """All peers whose beacons were heard within *within_s*."""
        if self._pending:
            self._flush()
        return [
            peer for peer, rep in self._reports.items()
            if (now - rep[0]) <= within_s
        ]

    def probability(self, a, b, now):
        """Best known estimate of ``p(a -> b)``; 0 when unknown/stale."""
        if self._pending:
            self._flush()
        if a == b:
            return 1.0
        if b == self.node_id:
            j = self._index.get(a)
            return self._row_list()[j] if j is not None else 0.0
        stale_s = self.stale_s
        reports = self._reports
        best = 0.0
        best_ts = None
        from_b = reports.get(b)
        if from_b is not None and now - from_b[0] <= stale_s:
            prob = from_b[1].get(a)
            if prob is not None:
                best = prob
                best_ts = from_b[0]
        from_a = reports.get(a)
        if from_a is not None and now - from_a[0] <= stale_s:
            prob = from_a[2].get(b)
            if prob is not None and (best_ts is None or from_a[0] > best_ts):
                best = prob
        return best

    def probability_lookup(self, now):
        """A ``(a, b) -> p`` callable bound to the current time."""
        def lookup(a, b):
            return self.probability(a, b, now)
        return lookup

    # ------------------------------------------------------------------
    # Beacon payload construction
    # ------------------------------------------------------------------

    def beacon_reports(self, now):
        """Build the (incoming, learned) maps to embed in a beacon.

        The oracle's maps, served from caches (see the module
        docstring): the ``incoming`` snapshot is materialized from the
        bank row once per fold, and successive beacons between changes
        share the same dict objects, whose contents equal a fresh
        rebuild.  Callers treat the maps as immutable.
        """
        if self._pending:
            self._flush()
        incoming = self._incoming_snapshot
        if incoming is None:
            ids = self.bank.ids
            incoming = self._incoming_snapshot = {
                ids[j]: value
                for j, value in enumerate(self._row_list())
                if value
            }
        if now > self._learned_expiry:
            # The earliest staleness expiry passed: prune by rebuilding
            # from the timestamps.  (Expiry is a lower bound — an entry
            # refreshed since may extend it — so rebuilds can only run
            # early, never late: the live map never serves stale rows.)
            stale_s = self.stale_s
            expiry = math.inf
            learned = {}
            for peer, (prob, ts) in self._outgoing.items():
                if now - ts <= stale_s:
                    learned[peer] = prob
                    expires = ts + stale_s
                    if expires < expiry:
                        expiry = expires
            self._learned_live = learned
            self._learned_expiry = expiry
        self._learned_shared = True
        return incoming, self._learned_live
