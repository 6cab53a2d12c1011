"""Packet-loss processes.

The measurement study (Section 3.4.2, Figure 6) shows that vehicular
WiFi losses are *bursty*: the probability of losing packet ``i+1`` after
losing packet ``i`` is far higher than the unconditional loss rate, and
the excess decays over hundreds of packets.  The classic model with this
behaviour is the Gilbert-Elliott two-state Markov channel, which we use
throughout.

Three processes are provided:

* :class:`BernoulliLoss` — i.i.d. losses (a control / baseline).
* :class:`GilbertElliottLoss` — the two-state burst channel.
* :class:`SteeredGilbertElliott` — a Gilbert-Elliott chain whose
  *instantaneous mean* loss rate is steered to follow an externally
  supplied target (distance + shadowing + gray periods, or a beacon
  trace), while preserving burstiness.  This is how we combine the
  paper's trace-driven methodology ("the beacon loss ratio ... is used
  as the packet loss rate", Section 5.1) with realistic short-term
  structure.
* :class:`TraceDrivenLoss` — per-second loss probabilities applied
  i.i.d. within the second; the literal reading of the paper's
  methodology, kept for validation runs.

Both trace-driven uses read the per-second series through
:class:`RateSeries`.
"""

import math

from repro.net.propagation import LinkStateCache
from repro.sim.rng import BufferedUniforms

__all__ = [
    "BernoulliLoss",
    "GilbertElliottLoss",
    "LossProcess",
    "RateSeries",
    "SteeredGilbertElliott",
    "TraceDrivenLoss",
]


class LossProcess:
    """Interface: decide whether a transmission at time *t* is lost.

    ``static_loss_rate`` is the expected loss rate when it never
    changes over time, else ``None``.  The reachability index of
    :class:`~repro.net.medium.LinkTable` classifies such links once
    instead of re-evaluating them on every refresh.

    The processes separate *state advance* from the per-packet coin
    flip: ``loss_eps(t)`` advances any internal state to *t* and
    returns the instantaneous per-packet loss probability, without
    consuming a uniform draw, and ``loss_eps_window(t) ->
    (eps, valid_until)`` also bounds how long it stays valid: the loss
    probability cannot change before ``valid_until`` (the next
    burst-chain flip, steering-bucket boundary, or trace-second
    boundary, whichever comes first).  Every process on a medium link
    supplies ``loss_eps_window``.  The medium
    (:class:`~repro.net.medium.WirelessMedium`) stores these
    thresholds in its struct-of-arrays resolve rows, reuses each while
    its window holds — bitwise-safe because a skipped no-flip state
    advance consumes no randomness and a pending flip caps the window
    — and draws every frame's uniforms itself, off one batched
    outcome stream.
    :meth:`is_lost` flips the coin from the process's own stream, for
    callers outside the medium (probe traces, the handoff study).
    """

    static_loss_rate = None

    def is_lost(self, t):
        """Return True if a packet sent at time *t* is lost."""
        raise NotImplementedError

    def loss_rate(self, t):
        """Return the expected loss probability around time *t*."""
        raise NotImplementedError


class BernoulliLoss(LossProcess):
    """Independent losses with a fixed probability.

    Uniform draws are served from pre-drawn numpy blocks (see
    :class:`~repro.sim.rng.BufferedUniforms`), which is bit-for-bit
    identical to scalar draws as long as *rng* has no other consumers.
    """

    def __init__(self, p, rng):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability {p} outside [0, 1]")
        self.p = float(p)
        self.static_loss_rate = self.p
        self.rng = rng
        self._draw = BufferedUniforms(rng).next

    def is_lost(self, t):
        return self._draw() < self.p

    def loss_eps(self, t):
        return self.p

    def loss_eps_window(self, t):
        return self.p, math.inf

    def loss_rate(self, t):
        return self.p


class GilbertElliottLoss(LossProcess):
    """Two-state Markov (Gilbert-Elliott) loss process.

    The channel alternates between a *good* state with loss probability
    ``eps_good`` and a *bad* state with loss probability ``eps_bad``.
    State holding times are exponential with means ``good_duration`` and
    ``bad_duration`` seconds; the state is advanced lazily to the query
    time, so the process is independent of the packet sending rate.

    The stationary loss rate is
    ``pi_bad * eps_bad + (1 - pi_bad) * eps_good`` with
    ``pi_bad = bad_duration / (good_duration + bad_duration)``.
    """

    def __init__(self, eps_good, eps_bad, good_duration, bad_duration, rng,
                 start_time=0.0):
        if good_duration <= 0 or bad_duration <= 0:
            raise ValueError("state durations must be positive")
        for name, value in (("eps_good", eps_good), ("eps_bad", eps_bad)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        self.eps_good = float(eps_good)
        self.eps_bad = float(eps_bad)
        self.good_duration = float(good_duration)
        self.bad_duration = float(bad_duration)
        self.rng = rng
        self._in_bad = bool(
            rng.random() < bad_duration / (good_duration + bad_duration)
        )
        mean = self.bad_duration if self._in_bad else self.good_duration
        self._next_flip = start_time + rng.exponential(mean)
        self._time = start_time
        self.static_loss_rate = (
            self.pi_bad * self.eps_bad + (1 - self.pi_bad) * self.eps_good
        )

    @property
    def pi_bad(self):
        """Stationary probability of the bad state."""
        return self.bad_duration / (self.good_duration + self.bad_duration)

    def _advance(self, t):
        if t < self._time:
            raise ValueError(
                f"loss process queried backwards in time: {t} < {self._time}"
            )
        while self._next_flip <= t:
            self._in_bad = not self._in_bad
            mean = self.bad_duration if self._in_bad else self.good_duration
            self._next_flip += self.rng.exponential(mean)
        self._time = t

    def in_bad_state(self, t):
        self._advance(t)
        return self._in_bad

    def is_lost(self, t):
        self._advance(t)
        eps = self.eps_bad if self._in_bad else self.eps_good
        return bool(self.rng.random() < eps)

    def loss_eps(self, t):
        self._advance(t)
        return self.eps_bad if self._in_bad else self.eps_good

    def loss_eps_window(self, t):
        """``(eps, valid_until)``: eps cannot change before the flip."""
        self._advance(t)
        eps = self.eps_bad if self._in_bad else self.eps_good
        return eps, self._next_flip

    def loss_rate(self, t):
        return self.static_loss_rate


class SteeredGilbertElliott(LossProcess):
    """Gilbert-Elliott burstiness steered to a target mean loss rate.

    Given a callable ``mean_loss(t)`` returning the target loss rate at
    time *t* (from path loss, shadowing, gray periods, or a beacon
    trace), the per-state loss probabilities are re-derived at every
    query so the instantaneous expectation matches the target while the
    good/bad alternation supplies burst structure:

    * ``eps_bad = min(1, m / (pi_bad + rho * (1 - pi_bad)))``
    * ``eps_good = rho * eps_bad``

    where ``rho`` is the good/bad loss ratio (small, e.g. 0.1).  When
    the target is so lossy that ``eps_bad`` clips at 1, the remainder is
    pushed into the good state, preserving the mean exactly.

    ``mean_loss`` may also be a plain float for links whose target rate
    never changes (e.g. static BS-BS links): the per-state split is then
    computed once instead of per query.

    The target's kind, recognized at construction, decides how far
    :meth:`loss_eps_window` reaches past the query time:

    * a float: to the chain's next state flip;
    * a :class:`~repro.net.propagation.LinkStateCache`'s ``loss_prob``:
      to the end of the cache's time bucket or the flip, whichever
      comes first;
    * a callable with a ``rate_window(t) -> (rate, valid_until)``
      method, such as the :class:`RateSeries` of a per-second trace
      that :func:`~repro.testbeds.lossmap.build_link_table_from_log`
      passes: to the next change of the target (the next trace
      second) or the flip;
    * any other callable: nowhere, the window ends at the query time.

    Per-packet uniform draws come from a
    :class:`~repro.sim.rng.BufferedUniforms` block over *rng* to
    amortize generator dispatch overhead.  Because the chain's
    holding-time draws interleave on the same stream, batching yields a
    different — statistically equivalent — realization than unbatched
    scalar draws.
    """

    def __init__(self, mean_loss, rng, good_duration=0.9, bad_duration=0.12,
                 rho=0.08, start_time=0.0):
        self.rho = float(rho)
        self._chain = GilbertElliottLoss(
            eps_good=0.0,
            eps_bad=1.0,
            good_duration=good_duration,
            bad_duration=bad_duration,
            rng=rng,
            start_time=start_time,
        )
        self.rng = rng
        self._draw = BufferedUniforms(rng).next
        # The split depends only on the target mean (pi_bad is fixed),
        # and the target is piecewise-constant in practice (cached link
        # state, per-second traces), so memoize the last split.
        self._last_m = None
        self._last_split = (0.0, 0.0)
        if callable(mean_loss):
            self.mean_loss = mean_loss
            self._static_eps = None
            # When the target is a LinkStateCache's loss_prob, read the
            # cache's current bucket inline: the per-packet hot path
            # then skips two call frames on every cache hit.
            owner = getattr(mean_loss, "__self__", None)
            self._link_state = owner \
                if isinstance(owner, LinkStateCache) else None
            # A target that reports when its value next changes bounds
            # the window by that change instead of by the query time.
            self._rate_window = getattr(mean_loss, "rate_window", None)
        else:
            rate = min(max(float(mean_loss), 0.0), 1.0)
            self.mean_loss = lambda t, rate=rate: rate
            self._static_eps = self._split(rate)
            self.static_loss_rate = rate
            self._link_state = None
            self._rate_window = None

    def _split(self, m):
        """Split target mean *m* into (eps_good, eps_bad)."""
        m = min(max(float(m), 0.0), 1.0)
        pi_b = self._chain.pi_bad
        denom = pi_b + self.rho * (1.0 - pi_b)
        eps_bad = m / denom if denom > 0 else m
        if eps_bad <= 1.0:
            return self.rho * eps_bad, eps_bad
        # Bad state saturates; spill the excess into the good state so
        # the overall mean is preserved.
        eps_good = (m - pi_b) / (1.0 - pi_b)
        return min(eps_good, 1.0), 1.0

    def loss_eps(self, t):
        """Advance the chain to *t*; return the per-packet loss prob."""
        return self.loss_eps_window(t)[0]

    def loss_eps_window(self, t):
        """``(eps, valid_until)`` for the medium's resolve rows.

        The per-packet probability is pinned until whichever comes
        first: the chain's next state flip, or the next instant the
        target can move.  A float target never moves.  For a
        :class:`LinkStateCache` target that is the end of the current
        time-quantum bucket: the cached probability is one value per
        bucket (a bank samples it at the bucket centre, possibly
        prefilled), so the window never spans a bucket boundary.  At an
        *exact* bucket-edge query the bound may degenerate to the query
        time itself (float division lands the key either side of the
        edge); that costs one extra refresh, never a stale threshold.
        A target with ``rate_window`` reports the bound itself: for a
        per-second trace series, the next trace second, and never past
        the trace end, where the out-of-range rate holds and only flips
        bound the window.  The boundary tests in
        ``tests/test_net_channel.py`` assert these bounds.  Any other
        callable target can change at any instant, so its window
        degenerates to the query time (no reuse); ``quantum<=0``
        likewise buckets at exact query times only, preserving the
        bitwise guarantee.  :meth:`loss_eps` reads the same value; the
        medium calls this once per stale row, so the target lookups and
        the chain advance run inline.
        """
        chain = self._chain
        if self._static_eps is not None:
            eps_good, eps_bad = self._static_eps
            bound = math.inf
        else:
            ls = self._link_state
            if ls is not None:
                quantum = ls.quantum
                if quantum > 0.0:
                    key = int(t / quantum)
                    bound = (key + 1.0) * quantum
                else:
                    key = t
                    bound = t
                if key == ls._prob_key:
                    m = 1.0 - ls._prob
                else:
                    m = 1.0 - ls.reception_prob(t)
            elif self._rate_window is not None:
                m, bound = self._rate_window(t)
            else:
                m = self.mean_loss(t)
                bound = t
            if m != self._last_m:
                self._last_m = m
                self._last_split = self._split(m)
            eps_good, eps_bad = self._last_split
        # Inline the no-flip fast path of the chain advance; the full
        # method only runs when a state flip is actually due.
        if chain._time <= t < chain._next_flip:
            chain._time = t
            in_bad = chain._in_bad
        else:
            in_bad = chain.in_bad_state(t)
        next_flip = chain._next_flip
        if next_flip < bound:
            bound = next_flip
        return (eps_bad if in_bad else eps_good), bound

    def is_lost(self, t):
        # Advance the chain before the coin: its flips draw from the
        # same stream.
        eps = self.loss_eps(t)
        return self._draw() < eps

    def loss_rate(self, t):
        if self.static_loss_rate is not None:
            return self.static_loss_rate
        return min(max(float(self.mean_loss(t)), 0.0), 1.0)


class RateSeries:
    """A per-second loss-rate series, read at simulated time *t*.

    Second ``k`` of the series covers ``[t0 + k, t0 + k + 1)``, and
    ``out_of_range_rate`` holds outside the series.  Calling it gives
    the rate at *t*; :meth:`rate_window` also says when that rate next
    changes.  As the target of a :class:`SteeredGilbertElliott` that
    lets the chain keep one loss threshold until the next trace second
    instead of re-reading it on every frame.

    The rates are read in place, so a float64 array stays one: python
    floats would take four times its memory.
    """

    __slots__ = ("rates", "t0", "out_of_range_rate")

    def __init__(self, rates, t0=0.0, out_of_range_rate=1.0):
        self.rates = rates
        self.t0 = t0
        self.out_of_range_rate = out_of_range_rate

    def __call__(self, t):
        return self.rate_window(t)[0]

    def rate_window(self, t):
        """``(rate, valid_until)``: the rate cannot change before then."""
        idx = math.floor(t - self.t0)
        if 0 <= idx < len(self.rates):
            return float(self.rates[idx]), self.t0 + idx + 1.0
        if idx < 0:
            return self.out_of_range_rate, self.t0
        return self.out_of_range_rate, math.inf


class TraceDrivenLoss(LossProcess):
    """Loss process driven by a per-second loss-rate series.

    This is the paper's DieselNet methodology taken literally: "the
    beacon loss ratio from a BS to the vehicle in each one-second
    interval is used as the packet loss rate from that BS to the vehicle
    and from the vehicle to the BS" (Section 5.1).  Losses are i.i.d.
    within each second.

    Args:
        rates: sequence of loss probabilities, one per second starting
            at ``t0``.
        rng: random stream for the per-packet draws.
        t0: trace start time.
        out_of_range_rate: loss rate applied outside the trace span.
    """

    def __init__(self, rates, rng, t0=0.0, out_of_range_rate=1.0):
        self.rates = [float(r) for r in rates]
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"trace loss rate {r} outside [0, 1]")
        self.rng = rng
        self._series = RateSeries(self.rates, float(t0),
                                  float(out_of_range_rate))
        self._draw = BufferedUniforms(rng).next

    def loss_rate(self, t):
        return self._series(t)

    def loss_eps(self, t):
        return self._series(t)

    def loss_eps_window(self, t):
        """``(eps, valid_until)``: rates hold within a trace second."""
        return self._series.rate_window(t)

    def is_lost(self, t):
        return self._draw() < self._series(t)
