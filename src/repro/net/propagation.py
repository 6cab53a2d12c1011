"""Radio propagation: path loss, shadowing, gray periods, RSSI.

The VanLAN measurement study found that vehicular connectivity "is often
marred by gray periods where connection quality drops sharply" and
"occur even close to BSes" (Section 3.3).  Our link model therefore has
three layers:

1. **Log-distance path loss** sets the mean received power as a
   function of distance.
2. **Lognormal shadowing**, temporally correlated through an AR(1)
   (Ornstein-Uhlenbeck) process updated once per second, models the
   slowly varying obstruction environment as the vehicle moves.
3. **Gray periods**: a Poisson process of short windows during which
   the reception probability collapses regardless of distance —
   reproducing the unpredictable sharp drops the paper measured.

Received power maps to packet reception probability through a logistic
curve calibrated for 500-byte frames at 1 Mbps (the paper's fixed rate,
Section 5.1).

Link evaluation is the hottest path of a protocol run (every frame asks
every in-range receiver for its instantaneous loss probability), so this
module also provides the fast path: :class:`SpatialField` evaluates its
random-Fourier sum vectorized with numpy behind a position-quantized LRU
cache, :class:`GrayPeriodProcess` answers queries by bisection over
merged intervals and prunes expired ones, and :class:`LinkStateCache`
memoizes a link's RSSI / reception probability per time quantum (safe
because shadowing interpolates on a 1 s lattice and mobility is smooth;
``quantum_s=0`` degenerates to exact-time memoization and is bitwise
identical to the uncached model).

On top of the per-link cache sits :class:`LinkBank`: in the ViFi
setting every vehicle transmission is heard by all ~11 basestations at
the same instant (the paper's Figure 5 diversity argument), so the N
per-link cache misses of one time quantum are really one batched
computation.  The bank stacks the per-BS spatial-field Fourier
coefficients, shadowing lattices, and geometry into shared numpy arrays
and fills every member cache's buckets in array passes over 256-bucket
chunks, with no per-bucket Python.  Every bucket is sampled at its
centre instant, so its value is a pure function of (link, bucket):
whole trips can be prefilled at build time, bit for bit equal to the
lazy fill.
"""

import bisect
import math
import time

import numpy as np

__all__ = [
    "GrayPeriodProcess",
    "LinkBank",
    "LinkModel",
    "LinkStateCache",
    "RadioProfile",
    "Shadowing",
    "SpatialField",
]


class RadioProfile:
    """Static radio parameters shared by a deployment.

    Attributes:
        tx_power_dbm: transmit power.
        path_loss_exponent: log-distance exponent (3.2 suits suburban
            outdoor non-line-of-sight).
        ref_loss_db: path loss at the 1 m reference distance.
        shadowing_sigma_db: lognormal shadowing standard deviation.
        shadowing_tau_s: shadowing decorrelation time constant.
        decode_mid_dbm: RSSI at which half the frames decode.
        decode_width_db: logistic width of the decode curve.
        max_reception: ceiling on the decode probability.  Outdoor
            vehicular links never reach wired-like reliability — the
            paper's measured reception probabilities top out around
            0.67-0.75 even for chosen BS pairs (Figure 6b) — so the
            logistic curve is scaled by this cap.
        noise_floor_dbm: floor below which nothing is ever received.
        gray_rate_per_s: Poisson rate of gray-period onsets per link.
        gray_duration_s: mean gray-period duration.
        gray_residual_reception: reception probability inside a gray
            period (close to zero).
    """

    def __init__(self, tx_power_dbm=18.0, path_loss_exponent=3.2,
                 ref_loss_db=41.0, shadowing_sigma_db=5.5,
                 shadowing_tau_s=12.0, decode_mid_dbm=-88.0,
                 decode_width_db=3.5, max_reception=1.0,
                 noise_floor_dbm=-100.0,
                 gray_rate_per_s=1.0 / 45.0, gray_duration_s=2.5,
                 gray_residual_reception=0.05):
        self.tx_power_dbm = tx_power_dbm
        self.path_loss_exponent = path_loss_exponent
        self.ref_loss_db = ref_loss_db
        self.shadowing_sigma_db = shadowing_sigma_db
        self.shadowing_tau_s = shadowing_tau_s
        self.decode_mid_dbm = decode_mid_dbm
        self.decode_width_db = decode_width_db
        self.max_reception = max_reception
        self.noise_floor_dbm = noise_floor_dbm
        self.gray_rate_per_s = gray_rate_per_s
        self.gray_duration_s = gray_duration_s
        self.gray_residual_reception = gray_residual_reception

    def cache_token(self):
        """Identity for content-addressed caching (see repro.store)."""
        return ("RadioProfile",) + tuple(sorted(self.__dict__.items()))

    def mean_rssi(self, distance_m):
        """Mean RSSI (dBm) at *distance_m* via log-distance path loss."""
        d = max(float(distance_m), 1.0)
        loss = self.ref_loss_db + 10.0 * self.path_loss_exponent * math.log10(d)
        return self.tx_power_dbm - loss

    def reception_prob(self, rssi_dbm):
        """Frame decode probability at a given RSSI (logistic curve)."""
        if rssi_dbm <= self.noise_floor_dbm:
            return 0.0
        x = (rssi_dbm - self.decode_mid_dbm) / self.decode_width_db
        # Clamp to avoid overflow in exp for extreme arguments.
        if x > 30:
            return self.max_reception
        if x < -30:
            return 0.0
        return self.max_reception / (1.0 + math.exp(-x))


class Shadowing:
    """AR(1) lognormal shadowing sampled on a one-second lattice.

    The process satisfies ``s[k+1] = a * s[k] + sqrt(1-a^2) * sigma * w``
    with ``a = exp(-1/tau)``, giving an exponentially decaying
    autocorrelation with time constant ``tau`` seconds and a stationary
    standard deviation ``sigma`` dB.  Values between lattice points are
    linearly interpolated so RSSI varies smoothly.
    """

    def __init__(self, sigma_db, tau_s, rng):
        self.sigma = float(sigma_db)
        self.a = math.exp(-1.0 / max(float(tau_s), 1e-9))
        self.rng = rng
        self._values = [self.rng.normal(0.0, self.sigma)]

    def _extend_to(self, k):
        innov = math.sqrt(max(1.0 - self.a * self.a, 0.0)) * self.sigma
        while len(self._values) <= k + 1:
            prev = self._values[-1]
            self._values.append(self.a * prev + self.rng.normal(0.0, innov))

    def value_db(self, t):
        """Shadowing offset in dB at time *t* (t >= 0)."""
        if t < 0:
            raise ValueError("shadowing queried before time zero")
        k = int(t)
        values = self._values
        if len(values) <= k + 1:
            self._extend_to(k)
        frac = t - k
        return (1.0 - frac) * values[k] + frac * values[k + 1]


class SpatialField:
    """A static, spatially correlated shadowing field (dB).

    Obstructions like buildings and trees give each *location* a
    persistent quality offset relative to free-space prediction; this is
    what makes history-based BS selection work (the paper's History
    policy, after MobiSteer, predicts per-location performance from the
    previous day).  We synthesize a zero-mean Gaussian-process-like
    field as a sum of random-frequency cosines (random Fourier
    features), which is smooth over the given correlation length and
    deterministic for a given stream.

    The cosine sum is evaluated vectorized (one numpy expression over
    all terms) behind a small LRU cache keyed on the quantized query
    position.  With ``cache_quantum_m=0`` (the default) the key is the
    exact position, so caching is invisible: it only collapses repeated
    queries at the same point (each transmission queries the field once
    per direction and once for the RSSI report).  A positive quantum
    trades accuracy for hit rate; the error is bounded by the field's
    gradient (of order ``sigma / correlation_m`` dB per metre) times the
    quantum.

    Args:
        sigma_db: stationary standard deviation of the field.
        correlation_m: spatial correlation length in metres.
        rng: stream used to draw frequencies/phases (one-shot).
        n_terms: number of cosine terms; more terms make the field
            closer to Gaussian.
        cache_quantum_m: position quantization of the cache key in
            metres; 0 keys on exact positions.
        cache_size: maximum cached positions (LRU eviction).
    """

    def __init__(self, sigma_db, correlation_m, rng, n_terms=48,
                 cache_quantum_m=0.0, cache_size=1024):
        self.sigma = float(sigma_db)
        scale = 1.0 / max(float(correlation_m), 1e-9)
        self._freqs = rng.normal(0.0, scale, size=(n_terms, 2))
        self._phases = rng.uniform(0.0, 2.0 * math.pi, size=n_terms)
        self._amp = self.sigma * math.sqrt(2.0 / n_terms)
        self._fx = np.ascontiguousarray(self._freqs[:, 0])
        self._fy = np.ascontiguousarray(self._freqs[:, 1])
        self.cache_quantum = float(cache_quantum_m)
        self._cache = {}
        self._cache_size = int(cache_size)

    def _evaluate(self, x, y):
        total = np.cos(self._fx * x + self._fy * y + self._phases).sum()
        return self._amp * float(total)

    def value_db(self, x, y):
        """Field value at position ``(x, y)``."""
        quantum = self.cache_quantum
        if quantum > 0.0:
            key = (round(x / quantum), round(y / quantum))
        else:
            key = (x, y)
        cache = self._cache
        value = cache.get(key)
        if value is None:
            if quantum > 0.0:
                # Evaluate at the cell centre so the cached value is a
                # pure function of the key: the same location always
                # reads the same offset regardless of query order or
                # LRU eviction history.
                value = self._evaluate(key[0] * quantum, key[1] * quantum)
            else:
                value = self._evaluate(x, y)
            if len(cache) >= self._cache_size:
                # Evict the oldest entry (dicts preserve insertion
                # order); approximate LRU is plenty for a smooth field.
                del cache[next(iter(cache))]
            cache[key] = value
        return value


class GrayPeriodProcess:
    """Poisson arrivals of short reception collapses on a link.

    Onsets arrive at rate ``rate_per_s``; each lasts an exponential
    duration with the configured mean.  Overlapping periods merge.

    Intervals are stored merged and sorted, queries answered by
    bisection, and intervals that ended before the latest query time are
    pruned (simulation time is monotone), so long runs stay O(log n)
    per query instead of scanning the full history.
    """

    def __init__(self, rate_per_s, mean_duration_s, rng, horizon_hint_s=1200.0):
        self.rate = float(rate_per_s)
        self.mean_duration = float(mean_duration_s)
        self.rng = rng
        # Parallel arrays of merged, disjoint intervals sorted by start.
        # ``_low`` is the prune head: entries below it ended at or
        # before the latest query time and are compacted away lazily.
        self._starts = []
        self._ends = []
        self._low = 0
        self._generated_until = 0.0
        self._horizon_step = float(horizon_hint_s)

    def _append(self, start, end):
        if self._ends and start <= self._ends[-1]:
            # Overlapping or touching periods merge.
            if end > self._ends[-1]:
                self._ends[-1] = end
        else:
            self._starts.append(start)
            self._ends.append(end)

    def _generate_until(self, t):
        while self._generated_until <= t:
            start = self._generated_until
            end = start + self._horizon_step
            if self.rate > 0:
                expected = self.rate * (end - start)
                count = self.rng.poisson(expected)
                onsets = sorted(self.rng.uniform(start, end, size=count))
                for onset in onsets:
                    duration = self.rng.exponential(self.mean_duration)
                    self._append(onset, onset + duration)
            self._generated_until = end

    #: Pruning slack (seconds): intervals are only dropped once they
    #: ended this far before the latest query, so the slightly
    #: out-of-order queries the medium makes (frames are resolved in
    #: end-time order but evaluated at their start times, a few
    #: milliseconds of reordering) never lose a just-expired period.
    _PRUNE_SLACK_S = 1.0

    def in_gray(self, t):
        """True when time *t* falls inside a gray period.

        Queries are expected to be roughly monotone in *t* (reordering
        within ``_PRUNE_SLACK_S`` is fine); a query drops intervals
        that ended more than the slack before it, so a query further in
        the past may miss already-pruned periods.
        """
        self._generate_until(t)
        starts, ends, low = self._starts, self._ends, self._low
        cutoff = t - self._PRUNE_SLACK_S
        while low < len(ends) and ends[low] <= cutoff:
            low += 1
        if low > 256:
            del starts[:low]
            del ends[:low]
            low = 0
        self._low = low
        idx = bisect.bisect_right(starts, t, lo=low) - 1
        return idx >= low and ends[idx] > t


class LinkModel:
    """A directed radio link: mean reception probability over time.

    Combines path loss between the two endpoints' (possibly moving)
    positions, shadowing, and gray periods.  The model is *directional*
    in use but built symmetrically: callers typically create one model
    per unordered pair and share it for both directions, matching the
    paper's symmetric trace methodology, or create two with independent
    shadowing for asymmetry studies.

    Args:
        profile: the :class:`RadioProfile`.
        position_a / position_b: callables ``t -> (x, y)``.
        shadowing: a :class:`Shadowing` instance or ``None``.
        gray: a :class:`GrayPeriodProcess` or ``None``.
        spatial: a :class:`SpatialField` evaluated at endpoint *b*'s
            position (conventionally the moving endpoint), or ``None``.
    """

    def __init__(self, profile, position_a, position_b, shadowing=None,
                 gray=None, spatial=None):
        self.profile = profile
        self.position_a = position_a
        self.position_b = position_b
        self.shadowing = shadowing
        self.gray = gray
        self.spatial = spatial

    def distance(self, t):
        ax, ay = self.position_a(t)
        bx, by = self.position_b(t)
        return math.hypot(ax - bx, ay - by)

    def rssi(self, t):
        """Instantaneous RSSI including shadowing (dBm)."""
        ax, ay = self.position_a(t)
        bx, by = self.position_b(t)
        value = self.profile.mean_rssi(math.hypot(ax - bx, ay - by))
        if self.shadowing is not None:
            value += self.shadowing.value_db(t)
        if self.spatial is not None:
            value += self.spatial.value_db(bx, by)
        return value

    def reception_prob(self, t):
        """Mean packet reception probability at time *t*."""
        p = self.profile.reception_prob(self.rssi(t))
        if self.gray is not None and self.gray.in_gray(t):
            p = min(p, self.profile.gray_residual_reception)
        return p

    def loss_prob(self, t):
        return 1.0 - self.reception_prob(t)


class LinkStateCache:
    """Memoizes a :class:`LinkModel`'s RSSI / reception per time quantum.

    Every frame on the medium asks the link model for its instantaneous
    loss probability, but the model's ingredients change slowly:
    shadowing interpolates on a 1 s lattice, the spatial field varies
    over tens of metres (several seconds of driving), and gray periods
    last seconds.  Quantizing the query time to ``quantum_s`` therefore
    barely changes the answer — the reception-probability error is
    bounded by the model's time derivative (lattice slope plus field
    gradient times vehicle speed, a few dB/s) times the quantum — while
    collapsing the many evaluations a busy medium makes inside one
    quantum into a single computation.

    Two properties make the cache safe:

    * **Monotone time** — simulation time never goes backwards, so
      entries never need invalidation; only the latest bucket is kept.
    * **Deterministic replay** — the underlying stochastic processes
      (shadowing lattice, gray periods) extend themselves lazily but
      deterministically, so skipping intermediate queries consumes
      exactly the same RNG stream as making them.

    With ``quantum_s=0`` the bucket is the exact query time: results
    are bit-for-bit identical to the uncached model, and the cache only
    collapses repeated queries at the same instant (e.g. the up- and
    down-direction loss processes of one link resolving the same
    frame).

    A cache may be a member of a :class:`LinkBank` (``bank`` /
    ``bank_index``): misses are then served from the bank's
    bucket-centre chunk store, which every member shares.

    Args:
        link: the wrapped :class:`LinkModel`.
        quantum_s: time quantum in seconds (default 20 ms).
        bank: owning :class:`LinkBank`, or ``None`` for scalar misses.
        bank_index: this link's row in the bank's arrays.
    """

    #: Default time quantum (seconds) used by the testbed fast paths.
    DEFAULT_QUANTUM_S = 0.02

    __slots__ = ("link", "quantum", "bank", "bank_index", "_rssi_key",
                 "_rssi", "_prob_key", "_prob")

    def __init__(self, link, quantum_s=DEFAULT_QUANTUM_S, bank=None,
                 bank_index=None):
        self.link = link
        self.quantum = float(quantum_s)
        self.bank = bank
        self.bank_index = bank_index
        self._rssi_key = None
        self._rssi = 0.0
        self._prob_key = None
        self._prob = 0.0

    @property
    def profile(self):
        return self.link.profile

    def distance(self, t):
        return self.link.distance(t)

    def rssi(self, t):
        """Instantaneous RSSI (dBm), recomputed once per quantum."""
        key = t if self.quantum <= 0.0 else int(t / self.quantum)
        if key != self._rssi_key:
            if self.bank is not None:
                self._rssi = self.bank.rssi_at(self.bank_index, key)
            else:
                self._rssi = self.link.rssi(t)
            self._rssi_key = key
        return self._rssi

    def reception_prob(self, t):
        """Mean reception probability, recomputed once per quantum."""
        key = t if self.quantum <= 0.0 else int(t / self.quantum)
        if key != self._prob_key:
            link = self.link
            if self.bank is not None:
                self._prob = self.bank.prob_at(self.bank_index, key)
                self._prob_key = key
                return self._prob
            if key != self._rssi_key:
                self._rssi = link.rssi(t)
                self._rssi_key = key
            p = link.profile.reception_prob(self._rssi)
            if link.gray is not None and link.gray.in_gray(t):
                p = min(p, link.profile.gray_residual_reception)
            self._prob = p
            self._prob_key = key
        return self._prob

    def loss_prob(self, t):
        return 1.0 - self.reception_prob(t)


class LinkBank:
    """Vectorized evaluation of many links sharing one moving endpoint.

    When the vehicle transmits, every basestation link needs its
    RSSI / reception probability at the same instant; when any BS
    transmits, the vehicle link needs them moments later inside the
    same time quantum.  Evaluating those N cache misses one by one
    would repeat the same work N times, so the bank evaluates every
    link together, :attr:`_CHUNK` time buckets per array pass
    (:meth:`_fill_chunk`): one ``positions_at`` call places the
    vehicle, the per-BS spatial-field Fourier coefficients are stacked
    into ``(N, T)`` matrices evaluated once per distinct spatial cell,
    and path loss, shadowing interpolation, the decode logistic and
    the gray-period overlay run as one numpy pipeline over the chunk.
    The underlying stochastic processes extend themselves lazily but
    deterministically, so banked and scalar evaluation consume
    identical RNG streams.

    Every bucket is sampled at its centre instant ``(key + 0.5) *
    quantum_s``, so its value is a **pure function of (link,
    bucket)**: whole trips can be prefilled at build time
    (:meth:`prefill`), and the same (testbed, trip, quantum) always
    reproduces the same bank.  Lazy and prefilled fills run the
    *identical* chunk pipeline over the identical chunk boundaries, so
    they are bit-for-bit equal and consume the same RNG (the
    lattice/gray extensions are deterministic).  Member
    :class:`LinkStateCache` objects read their row of the current
    bucket.

    Requirements: every link shares the same :class:`RadioProfile` and
    the same moving endpoint (``position_b``) with an array form
    ``positions_at`` (a :class:`~repro.net.mobility.VehicleMotion`);
    the static endpoints (``position_a``) must not move; spatial
    fields, when present, must share term count and cache quantum.

    Args:
        links: :class:`LinkModel` instances satisfying the above.
        quantum_s: time quantum handed to the member caches (must be
            positive).
    """

    #: Buckets computed per vectorized fill pass.  Lazy fills and
    #: :meth:`prefill` both compute whole chunk-aligned ranges, so the
    #: two fill orders produce identical chunks.
    _CHUNK = 256

    def __init__(self, links, quantum_s=LinkStateCache.DEFAULT_QUANTUM_S):
        if not quantum_s > 0.0:
            raise ValueError("a LinkBank needs a positive time quantum")
        links = list(links)
        if not links:
            raise ValueError("LinkBank needs at least one link")
        profile = links[0].profile
        position = links[0].position_b
        for link in links:
            if link.profile is not profile:
                raise ValueError("banked links must share a RadioProfile")
            if link.position_b is not position:
                raise ValueError(
                    "banked links must share the moving endpoint"
                )
        if not callable(getattr(position, "positions_at", None)):
            raise ValueError(
                "the banked moving endpoint needs positions_at "
                "(e.g. a VehicleMotion)"
            )
        self.links = links
        self.profile = profile
        self.quantum = float(quantum_s)
        self._position = position
        n = len(links)
        # Static endpoint geometry (sampled once; banked links must
        # have stationary A endpoints).
        ax, ay = zip(*(link.position_a(0.0) for link in links))
        self._ax = [float(v) for v in ax]
        self._ay = [float(v) for v in ay]
        # Shadowing lattices; value lists are read directly per pass.
        self._shadowings = [link.shadowing for link in links]
        # Spatial fields, banked into (N, T) coefficient matrices.
        fields = [(i, link.spatial) for i, link in enumerate(links)
                  if link.spatial is not None]
        if fields:
            terms = {f._fx.shape[0] for _, f in fields}
            quanta = {f.cache_quantum for _, f in fields}
            if len(terms) != 1 or len(quanta) != 1:
                raise ValueError(
                    "banked spatial fields must share term count and "
                    "cache quantum"
                )
            self._sp_rows = np.asarray([i for i, _ in fields])
            self._sp_fx = np.stack([f._fx for _, f in fields])
            self._sp_fy = np.stack([f._fy for _, f in fields])
            self._sp_ph = np.stack([f._phases for _, f in fields])
            self._sp_amp = np.asarray([f._amp for _, f in fields])
            self._sp_quantum = fields[0][1].cache_quantum
            if len(fields) != n:
                raise ValueError(
                    "banked links must all have a spatial field or none"
                )
        else:
            self._sp_rows = None
        self._grays = [link.gray for link in links]
        # The current bucket's values, as python lists so member reads
        # never pay numpy scalar boxing (see _load_bucket).
        self._key = None
        self._rssi_list = None
        self._prob_list = None
        # Chunk store: chunk index -> (rssi, prob) float64 matrices of
        # shape (n, _CHUNK).  Append-only and a pure function of
        # (links, quantum, chunk), whichever fill order produced it.
        self._chunks = {}
        self._centre_column = None
        #: Simulated horizon (seconds) covered by :meth:`prefill`.
        self.prefilled_until = 0.0
        #: Wall seconds spent in :meth:`prefill` (tracked so benchmark
        #: harnesses can report build cost separately from run cost).
        self.prefill_wall_s = 0.0

    def wrap(self):
        """Member :class:`LinkStateCache` objects, one per banked link."""
        return [
            LinkStateCache(link, quantum_s=self.quantum, bank=self,
                           bank_index=i)
            for i, link in enumerate(self.links)
        ]

    # -- chunk pipeline --------------------------------------------------

    def _spatial_matrix(self, px, py):
        """All fields' offsets at the chunk positions, shape (N, C).

        A position reads its cell centre (:class:`SpatialField`'s
        cache convention; ``np.rint`` rounds half to even like
        ``round``), so offsets are a pure function of the cell.  One
        batched cosine pass evaluates each distinct cell once.
        """
        quantum = self._sp_quantum
        if quantum > 0.0:
            px = np.rint(px / quantum) * quantum
            py = np.rint(py / quantum) * quantum
        cells, inverse = np.unique(np.stack((px, py), axis=1), axis=0,
                                   return_inverse=True)
        # (N, cells, T), built in place to keep the chunk's peak small.
        arg = self._sp_fx[:, None, :] * cells[:, 0][None, :, None]
        arg += self._sp_fy[:, None, :] * cells[:, 1][None, :, None]
        arg += self._sp_ph[:, None, :]
        values = self._sp_amp[:, None] * np.cos(arg, out=arg).sum(axis=2)
        return values[:, inverse.reshape(-1)]

    def _fill_chunk(self, chunk):
        """Compute buckets ``[chunk*_CHUNK, ...)`` at their centres.

        One vectorized pipeline per chunk (so temporaries stay
        chunk-sized): ``positions_at``, stacked path loss,
        lattice-interpolated shadowing rows, the banked spatial matrix,
        the decode logistic, and a searchsorted gray-period overlay.
        Every value is evaluated at its bucket-centre instant, so the
        result depends only on (links, quantum, chunk).
        """
        profile = self.profile
        quantum = self.quantum
        size = self._CHUNK
        k0 = chunk * size
        tc = (np.arange(k0, k0 + size, dtype=np.float64) + 0.5) * quantum
        px, py = self._position.positions_at(tc)
        ax = np.asarray(self._ax)[:, None]
        ay = np.asarray(self._ay)[:, None]
        d = np.hypot(ax - px[None, :], ay - py[None, :])
        np.maximum(d, 1.0, out=d)
        rssi = profile.tx_power_dbm - (
            profile.ref_loss_db
            + 10.0 * profile.path_loss_exponent * np.log10(d)
        )
        # Shadowing: extend each lattice deterministically to the chunk
        # end, then interpolate the whole chunk in one expression.
        k_lo = int(tc[0])
        k_hi = int(tc[-1])
        kk = tc.astype(np.int64)
        frac = tc - kk
        inv_frac = 1.0 - frac
        rel = kk - k_lo
        for i, shadow in enumerate(self._shadowings):
            if shadow is None:
                continue
            if len(shadow._values) <= k_hi + 1:
                shadow._extend_to(k_hi)
            vals = np.asarray(shadow._values[k_lo:k_hi + 2])
            rssi[i] += inv_frac * vals[rel] + frac * vals[rel + 1]
        if self._sp_rows is not None:
            rssi += self._spatial_matrix(px, py)
        # Decode logistic with the scalar clamps applied vectorized.
        arg = (rssi - profile.decode_mid_dbm) / profile.decode_width_db
        prob = profile.max_reception / (
            1.0 + np.exp(-np.clip(arg, -30.0, 30.0))
        )
        prob[arg > 30.0] = profile.max_reception
        prob[arg < -30.0] = 0.0
        prob[rssi <= profile.noise_floor_dbm] = 0.0
        # Gray periods: generate deterministically to the chunk end and
        # overlay by bisection over the merged intervals; as in the
        # scalar pass, links already at or below the residual skip the
        # query (the processes extend deterministically either way).
        residual = profile.gray_residual_reception
        t_end = float(tc[-1])
        for i, gray in enumerate(self._grays):
            if gray is None:
                continue
            row = prob[i]
            mask = row > residual
            if not mask.any():
                continue
            gray._generate_until(t_end)
            starts = np.asarray(gray._starts, dtype=np.float64)
            if starts.size == 0:
                continue
            ends = np.asarray(gray._ends, dtype=np.float64)
            times = tc[mask]
            idx = np.searchsorted(starts, times, side="right") - 1
            in_gray = (idx >= 0) & (ends[np.maximum(idx, 0)] > times)
            if in_gray.any():
                sub = row[mask]
                sub[in_gray] = residual
                row[mask] = sub
        data = (rssi, prob)
        self._chunks[chunk] = data
        return data

    def _load_bucket(self, key):
        """Make bucket *key* current."""
        chunk, offset = divmod(key, self._CHUNK)
        data = self._chunks.get(chunk)
        if data is None:
            data = self._fill_chunk(chunk)
        # The RSSI column is extracted lazily: protocol runs read only
        # probabilities on the hot path.
        self._rssi_list = None
        self._prob_list = data[1][:, offset].tolist()
        self._centre_column = (data[0], offset)
        self._key = key

    def prefill(self, until_s):
        """Precompute every bucket up to *until_s* seconds.

        A whole trip's buckets are filled in ``n_buckets / _CHUNK``
        vectorized passes at build time, so the run itself performs
        only array reads; the values equal a lazy fill's bit for bit.
        Returns the bank for chaining.
        """
        t0 = time.perf_counter()
        last_chunk = int(float(until_s) / self.quantum) // self._CHUNK
        for chunk in range(last_chunk + 1):
            if chunk not in self._chunks:
                self._fill_chunk(chunk)
        self.prefilled_until = max(self.prefilled_until, float(until_s))
        self.prefill_wall_s += time.perf_counter() - t0
        return self

    # -- member reads ----------------------------------------------------

    def rssi_at(self, index, key):
        """RSSI (dBm) of link *index* for bucket *key*."""
        if key != self._key:
            self._load_bucket(key)
        values = self._rssi_list
        if values is None:
            rssi, offset = self._centre_column
            values = self._rssi_list = rssi[:, offset].tolist()
        return values[index]

    def prob_at(self, index, key):
        """Reception probability of link *index* for bucket *key*."""
        if key != self._key:
            self._load_bucket(key)
        return self._prob_list[index]
