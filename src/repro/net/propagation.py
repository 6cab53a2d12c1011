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

One evaluator computes the model: :class:`LinkBank`.  In the ViFi
setting every vehicle transmission is heard by all ~11 basestations at
the same instant (the paper's Figure 5 diversity argument), so the
links that share the moving vehicle are one batched computation.  The
bank stacks the per-BS spatial-field Fourier coefficients, shadowing
lattices and geometry into shared numpy arrays and evaluates every
link in array passes over 256-instant chunks, with no per-instant
Python.  :meth:`LinkBank.evaluate` returns RSSI and reception
probability over an ascending time grid: probe traces, beacon logs
and Figure 6 read their whole probe grid in one call.  Protocol runs
read the bank by 20 ms bucket, each sampled at its centre instant, so
a bucket's value is a pure function of (link, bucket): whole trips can
be prefilled at build time, bit for bit equal to the lazy fill.  Each
banked link is handed to its loss processes as a ``rate_window``
target (see :meth:`LinkBank.members`).  :class:`Shadowing`,
:class:`SpatialField` and :class:`GrayPeriodProcess` hold each layer's
random state and extend it deterministically.
"""

import math
import time

import numpy as np

__all__ = [
    "GrayPeriodProcess",
    "LinkBank",
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
        """Mean RSSI (dBm) at *distance_m* via log-distance path loss.

        Elementwise over arrays; distances below the 1 m reference read
        the reference.
        """
        d = np.maximum(distance_m, 1.0)
        return self.tx_power_dbm - (
            self.ref_loss_db + 10.0 * self.path_loss_exponent * np.log10(d)
        )

    def reception_prob(self, rssi_dbm):
        """Frame decode probability at *rssi_dbm* (logistic curve).

        Elementwise over arrays.  Arguments beyond 30 logistic widths
        read the curve's limits (so ``exp`` never overflows), and
        nothing decodes at or below the noise floor.
        """
        arg = (rssi_dbm - self.decode_mid_dbm) / self.decode_width_db
        prob = self.max_reception / (1.0 + np.exp(-np.clip(arg, -30.0, 30.0)))
        prob = np.where(arg > 30.0, self.max_reception, prob)
        return np.where((arg < -30.0) | (rssi_dbm <= self.noise_floor_dbm),
                        0.0, prob)


class Shadowing:
    """AR(1) lognormal shadowing sampled on a one-second lattice.

    The process satisfies ``s[k+1] = a * s[k] + sqrt(1-a^2) * sigma * w``
    with ``a = exp(-1/tau)``, giving an exponentially decaying
    autocorrelation with time constant ``tau`` seconds and a stationary
    standard deviation ``sigma`` dB.  :class:`LinkBank` interpolates
    linearly between lattice points, so RSSI varies smoothly.
    """

    def __init__(self, sigma_db, tau_s, rng):
        self.sigma = float(sigma_db)
        self.a = math.exp(-1.0 / max(float(tau_s), 1e-9))
        self.rng = rng
        self._values = [self.rng.normal(0.0, self.sigma)]

    def _extend_to(self, k):
        """Draw the lattice through point ``k + 1``."""
        innov = math.sqrt(max(1.0 - self.a * self.a, 0.0)) * self.sigma
        while len(self._values) <= k + 1:
            prev = self._values[-1]
            self._values.append(self.a * prev + self.rng.normal(0.0, innov))


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

    :class:`LinkBank` evaluates the cosine sum once per distinct cell of
    a chunk.  With a positive ``cache_quantum_m`` a position reads the
    centre of its cell, so the offset is a pure function of the cell;
    the error is bounded by the field's gradient (of order
    ``sigma / correlation_m`` dB per metre) times the quantum.  With 0
    (the default) every exact position is its own cell.

    Args:
        sigma_db: stationary standard deviation of the field.
        correlation_m: spatial correlation length in metres.
        rng: stream used to draw frequencies/phases (one-shot).
        cache_quantum_m: cell size in metres; 0 reads exact positions.
    """

    #: Cosine terms per field; more terms make the field closer to
    #: Gaussian.
    N_TERMS = 48

    def __init__(self, sigma_db, correlation_m, rng, cache_quantum_m=0.0):
        self.sigma = float(sigma_db)
        scale = 1.0 / max(float(correlation_m), 1e-9)
        self._freqs = rng.normal(0.0, scale, size=(self.N_TERMS, 2))
        self._phases = rng.uniform(0.0, 2.0 * math.pi, size=self.N_TERMS)
        self._amp = self.sigma * math.sqrt(2.0 / self.N_TERMS)
        self._fx = np.ascontiguousarray(self._freqs[:, 0])
        self._fy = np.ascontiguousarray(self._freqs[:, 1])
        self.cache_quantum = float(cache_quantum_m)


class GrayPeriodProcess:
    """Poisson arrivals of short reception collapses on a link.

    Onsets arrive at rate ``rate_per_s``; each lasts an exponential
    duration with the configured mean.  Overlapping periods merge.
    Onsets are drawn :attr:`_HORIZON_S` seconds at a time, and the
    periods are stored merged and sorted, so :class:`LinkBank` overlays
    them by bisection.
    """

    #: Span (seconds) of one batch of drawn onsets.
    _HORIZON_S = 1200.0

    def __init__(self, rate_per_s, mean_duration_s, rng):
        self.rate = float(rate_per_s)
        self.mean_duration = float(mean_duration_s)
        self.rng = rng
        # Parallel lists of merged, disjoint intervals sorted by start.
        self._starts = []
        self._ends = []
        self._generated_until = 0.0

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
            end = start + self._HORIZON_S
            if self.rate > 0:
                expected = self.rate * (end - start)
                count = self.rng.poisson(expected)
                onsets = sorted(self.rng.uniform(start, end, size=count))
                for onset in onsets:
                    duration = self.rng.exponential(self.mean_duration)
                    self._append(onset, onset + duration)
            self._generated_until = end


class LinkBank:
    """Vectorized evaluation of one vehicle's links to fixed basestations.

    When the vehicle transmits, every basestation link needs its
    reception probability at the same instant; when any BS transmits,
    the vehicle link needs them moments later inside the same time
    quantum.  Evaluating those N links one by one would repeat the
    same work N times, so the bank evaluates every link together,
    :attr:`_CHUNK` instants per array pass (:meth:`_pipeline`): one
    ``positions_at`` call places the vehicle, the per-BS spatial-field
    Fourier coefficients are stacked into ``(N, T)`` matrices evaluated
    once per distinct spatial cell, and path loss, shadowing
    interpolation, the decode logistic and the gray-period overlay run
    as one numpy pipeline over the chunk.  The underlying stochastic
    processes extend themselves lazily but deterministically, so the
    values do not depend on which instants were evaluated first.

    :meth:`evaluate` runs the pipeline over any ascending time grid and
    returns RSSI and reception probability.  The protocol runs' reads
    go by time bucket: every bucket is sampled at its centre instant
    ``(key + 0.5) * QUANTUM_S``, so its value is a **pure function of
    (link, bucket)**: whole trips can be prefilled at build time
    (:meth:`prefill`), and the same (testbed, trip) always reproduces
    the same bank.  Lazy and prefilled fills run the pipeline over the
    identical chunk boundaries, so they are bit-for-bit equal and
    consume the same RNG.  The bank stores reception probabilities
    only.  :meth:`members` hands each link to
    its loss processes as a ``rate_window`` target that reads its row
    of the current bucket.

    Args:
        profile: the :class:`RadioProfile` of every link.
        motion: the vehicle's :class:`~repro.net.mobility.Route`, the
            moving endpoint of every link.
        positions: each basestation's ``(x, y)``, one link per entry.
        shadowings: each link's :class:`Shadowing`, or ``None``.
        grays: each link's :class:`GrayPeriodProcess`, or ``None``.
        spatials: each link's :class:`SpatialField` (read at the
            vehicle's position), all sharing one cache quantum, or
            ``None`` for every link.
    """

    #: Bucket width (seconds) of the protocol runs' reads.
    QUANTUM_S = 0.02

    #: Buckets computed per vectorized fill pass.  Lazy fills and
    #: :meth:`prefill` both compute whole chunk-aligned ranges, so the
    #: two fill orders produce identical chunks.
    _CHUNK = 256

    def __init__(self, profile, motion, positions, shadowings, grays,
                 spatials):
        self.profile = profile
        self.motion = motion
        self.n_links = len(positions)
        # Basestation coordinates as (N, 1) columns.
        xy = np.asarray(positions, dtype=np.float64)
        self._ax, self._ay = xy[:, :1], xy[:, 1:]
        # Shadowing lattices; value lists are read directly per pass.
        self._shadowings = list(shadowings)
        self._grays = list(grays)
        # Spatial fields, banked into (N, T) coefficient matrices.
        fields = list(spatials)
        self._sp_quantum = None
        if any(f is not None for f in fields):
            if None in fields or len({f.cache_quantum for f in fields}) != 1:
                raise ValueError(
                    "banked links need a spatial field each, sharing one "
                    "cache quantum, or none"
                )
            self._sp_fx = np.stack([f._fx for f in fields])
            self._sp_fy = np.stack([f._fy for f in fields])
            self._sp_ph = np.stack([f._phases for f in fields])
            self._sp_amp = np.asarray([f._amp for f in fields])
            self._sp_quantum = fields[0].cache_quantum
        # The current bucket's values, as python lists so member reads
        # never pay numpy scalar boxing (see _load_bucket).
        self._key = None
        self._prob_list = None
        # Chunk store: chunk index -> reception-probability float64
        # matrix of shape (n, _CHUNK).  Append-only and a pure function
        # of (links, chunk), whichever fill order produced it.
        self._chunks = {}
        #: Simulated horizon (seconds) covered by :meth:`prefill`.
        self.prefilled_until = 0.0
        #: Wall seconds spent in :meth:`prefill` (tracked so benchmark
        #: harnesses can report build cost separately from run cost).
        self.prefill_wall_s = 0.0

    def members(self):
        """One ``rate_window`` steering target per banked link, in order.

        A member's ``rate_window(t)`` answers ``(1 - prob_at(i, key),
        end of bucket key)`` for the bucket *key* holding *t*, behind a
        one-bucket memo, so a link's up and down chains, sharing the
        member, read each bucket from the bank once.
        """
        return [_BankMember(self, i) for i in range(self.n_links)]

    # -- chunk pipeline --------------------------------------------------

    def _spatial_matrix(self, px, py):
        """All fields' offsets at the chunk positions, shape (N, C).

        A position reads its cell centre (``np.rint`` rounds half to
        even), so offsets are a pure function of the cell.  One batched
        cosine pass evaluates each distinct cell once.
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

    def _pipeline(self, times):
        """RSSI and reception probability at up to :attr:`_CHUNK`
        ascending *times*, each an ``(N, len(times))`` array.

        One vectorized pass (so temporaries stay chunk-sized):
        ``positions_at``, the profile's path loss, lattice-interpolated
        shadowing rows, the banked spatial matrix, the profile's decode
        logistic, and a searchsorted gray-period overlay.  Every value
        depends only on (link, instant).
        """
        profile = self.profile
        px, py = self.motion.positions_at(times)
        rssi = profile.mean_rssi(np.hypot(self._ax - px[None, :],
                                          self._ay - py[None, :]))
        # Shadowing: extend each lattice deterministically to the chunk
        # end, then interpolate the whole chunk in one expression.
        k_lo = int(times[0])
        k_hi = int(times[-1])
        kk = times.astype(np.int64)
        frac = times - kk
        inv_frac = 1.0 - frac
        rel = kk - k_lo
        for i, shadow in enumerate(self._shadowings):
            if shadow is None:
                continue
            if len(shadow._values) <= k_hi + 1:
                shadow._extend_to(k_hi)
            vals = np.asarray(shadow._values[k_lo:k_hi + 2])
            rssi[i] += inv_frac * vals[rel] + frac * vals[rel + 1]
        if self._sp_quantum is not None:
            rssi += self._spatial_matrix(px, py)
        prob = profile.reception_prob(rssi)
        # Gray periods: generate deterministically to the chunk end and
        # overlay by bisection over the merged intervals; links already
        # at or below the residual skip the query (the processes extend
        # deterministically either way).
        residual = profile.gray_residual_reception
        t_end = float(times[-1])
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
            sub_times = times[mask]
            idx = np.searchsorted(starts, sub_times, side="right") - 1
            in_period = (idx >= 0) & (ends[np.maximum(idx, 0)] > sub_times)
            if in_period.any():
                sub = row[mask]
                sub[in_period] = residual
                row[mask] = sub
        return rssi, prob

    def evaluate(self, times):
        """RSSI (dBm) and reception probability of every link at *times*.

        *times* must be non-negative and ascending.  Returns ``(rssi,
        prob)``, two float64 arrays of shape ``(n_links, len(times))``,
        computed :attr:`_CHUNK` instants per :meth:`_pipeline` pass.
        The bucket fill is the same pipeline at bucket centres, so
        evaluating those instants reproduces the bank's buckets bit for
        bit.
        """
        times = np.asarray(times, dtype=np.float64)
        if times.size and not (times[0] >= 0.0
                               and (np.diff(times) >= 0.0).all()):
            raise ValueError("evaluate needs non-negative, ascending times")
        shape = (self.n_links, times.size)
        rssi, prob = np.empty(shape), np.empty(shape)
        for lo in range(0, times.size, self._CHUNK):
            hi = lo + self._CHUNK
            rssi[:, lo:hi], prob[:, lo:hi] = self._pipeline(times[lo:hi])
        return rssi, prob

    def _fill_chunk(self, chunk):
        """Store the reception probabilities of buckets
        ``[chunk*_CHUNK, ...)``, sampled at their centres."""
        k0 = chunk * self._CHUNK
        centres = (np.arange(k0, k0 + self._CHUNK, dtype=np.float64)
                   + 0.5) * self.QUANTUM_S
        prob = self._chunks[chunk] = self._pipeline(centres)[1]
        return prob

    def _load_bucket(self, key):
        """Make bucket *key* current."""
        chunk, offset = divmod(key, self._CHUNK)
        prob = self._chunks.get(chunk)
        if prob is None:
            prob = self._fill_chunk(chunk)
        self._prob_list = prob[:, offset].tolist()
        self._key = key

    def prefill(self, until_s):
        """Precompute every bucket up to *until_s* seconds.

        A whole trip's buckets are filled in ``n_buckets / _CHUNK``
        vectorized passes at build time, so the run itself performs
        only array reads; the values equal a lazy fill's bit for bit.
        Returns the bank for chaining.
        """
        t0 = time.perf_counter()
        last_chunk = int(float(until_s) / self.QUANTUM_S) // self._CHUNK
        for chunk in range(last_chunk + 1):
            if chunk not in self._chunks:
                self._fill_chunk(chunk)
        self.prefilled_until = max(self.prefilled_until, float(until_s))
        self.prefill_wall_s += time.perf_counter() - t0
        return self

    # -- member reads ----------------------------------------------------

    def prob_at(self, index, key):
        """Reception probability of link *index* for bucket *key*."""
        if key != self._key:
            self._load_bucket(key)
        return self._prob_list[index]


class _BankMember:
    """One :class:`LinkBank` link as a ``rate_window`` steering target.

    See :meth:`LinkBank.members`.  The window ends at the bucket's end:
    at an *exact* bucket-edge query, float division may land the key
    on the earlier bucket, whose end is then the query time itself.
    """

    __slots__ = ("bank", "index", "quantum", "_key", "_rate")

    def __init__(self, bank, index):
        self.bank = bank
        self.index = index
        self.quantum = bank.QUANTUM_S
        self._key = None
        self._rate = 1.0

    def rate_window(self, t):
        """``(loss rate, valid_until)`` of the bucket holding *t*."""
        quantum = self.quantum
        key = int(t / quantum)
        if key != self._key:
            self._rate = 1.0 - self.bank.prob_at(self.index, key)
            self._key = key
        return self._rate, (key + 1.0) * quantum
