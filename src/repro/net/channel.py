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
"""

import math

import numpy as np

from repro.net.propagation import LinkStateCache
from repro.sim.rng import BufferedUniforms

__all__ = [
    "BernoulliLoss",
    "GilbertElliottLoss",
    "LossProcess",
    "SteeredGilbertElliott",
    "TraceDrivenLoss",
]


class LossProcess:
    """Interface: decide whether a transmission at time *t* is lost.

    ``static_loss_rate`` is the expected loss rate when it never
    changes over time, else ``None``.  The reachability index of
    :class:`~repro.net.medium.LinkTable` classifies such links once
    instead of re-evaluating them on every refresh.

    Subclasses that can separate *state advance* from the per-packet
    coin flip additionally implement ``loss_eps(t)``: advance any
    internal state to *t* and return the instantaneous per-packet loss
    probability, without consuming a uniform draw.  The medium's
    batched-outcome fast path then supplies the uniforms itself from
    one RNG block per frame (see
    :class:`~repro.net.medium.WirelessMedium`); processes lacking
    ``loss_eps`` fall back to :meth:`is_lost` and keep their private
    draw streams.

    Processes that can additionally *bound* how long the returned
    probability stays valid implement ``loss_eps_window(t) ->
    (eps, valid_until)``: the loss probability cannot change before
    ``valid_until`` (the next burst-chain flip, steering-bucket
    boundary, or trace-second boundary, whichever comes first).  The
    medium stores these thresholds in its struct-of-arrays resolve
    rows and skips the per-frame ``loss_eps`` call while the window
    holds — bitwise-safe because a skipped no-flip state advance
    consumes no randomness and a pending flip caps the window.

    :meth:`loss_eps_span` extends the window to a whole *interval*
    (the medium's pre-draw plane plans one beacon interval at a time):
    it commits up front to every threshold the process will report
    over as much of ``[t0, t1)`` as it can bound — the whole span
    when nothing moves inside it, a shorter prefix when a burst flip
    or trace-second edge caps the commitment — or refuses with
    ``None`` when it cannot commit past the instant ``t0`` at all
    (an unbucketed callable target, no window support).
    """

    static_loss_rate = None

    def is_lost(self, t):
        """Return True if a packet sent at time *t* is lost."""
        raise NotImplementedError

    def loss_eps_span(self, t0, t1):
        """Commit thresholds for a prefix of ``[t0, t1)``, or ``None``.

        Returns ``(eps, quantum, key0, valid_until)`` with
        ``valid_until > t0`` — the commitment horizon.  The process
        guarantees its thresholds over ``[t0, min(t1, valid_until))``;
        a horizon short of *t1* (a pending burst flip, a trace-second
        edge) simply caps how far the caller may plan, and a horizon
        beyond *t1* tells the caller the value outlives the request
        (cacheable, exactly as a :meth:`loss_eps_window` bound).

        * ``quantum == 0.0`` — *eps* is a plain float, constant over
          ``[t0, valid_until)``;
        * ``quantum > 0.0`` — *eps* is a sequence of per-bucket
          thresholds for time buckets ``key0 ..`` (bucket of time *t*
          is ``int(t / quantum)``), covering every bucket touched by
          ``[t0, min(t1, valid_until))``.

        ``None`` means the process cannot commit past the instant
        *t0* at all (no window support, an unbucketed callable
        steering target) and the caller must stay on the per-query
        :meth:`loss_eps_window` path, which remains authoritative.
        State advances (chain time) behave exactly as a
        ``loss_eps_window(t0)`` call, so a refused or unused span
        never perturbs the draw stream.

        The default composes from :meth:`loss_eps_window`: the window
        value over its own bound is a constant span prefix.
        """
        window = getattr(self, "loss_eps_window", None)
        if window is None:
            return None
        eps, bound = window(t0)
        if bound <= t0:
            return None
        return eps, 0.0, 0, bound

    def loss_rate(self, t):
        """Return the expected loss probability around time *t*."""
        raise NotImplementedError


class BernoulliLoss(LossProcess):
    """Independent losses with a fixed probability.

    Uniform draws are served from pre-drawn numpy blocks (see
    :class:`~repro.sim.rng.BufferedUniforms`), which is bit-for-bit
    identical to scalar draws as long as *rng* has no other consumers.
    Pass ``batch=1`` to disable buffering for a shared stream.
    """

    def __init__(self, p, rng, batch=64):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability {p} outside [0, 1]")
        self.p = float(p)
        self.static_loss_rate = self.p
        self.rng = rng
        self._draw = BufferedUniforms(rng, block=batch).next

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

    Per-packet uniform draws are batched (``batch`` draws per numpy
    call) to amortize generator dispatch overhead.  Because the chain's
    holding-time draws interleave on the same stream, batching yields a
    different — statistically equivalent — realization than unbatched
    scalar draws; pass ``batch=1`` for the legacy draw-by-draw stream.
    """

    def __init__(self, mean_loss, rng, good_duration=0.9, bad_duration=0.12,
                 rho=0.08, start_time=0.0, batch=64):
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
        self._block = max(int(batch), 1)
        self._buf = ()
        self._buf_i = 0
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
        else:
            rate = min(max(float(mean_loss), 0.0), 1.0)
            self.mean_loss = lambda t, rate=rate: rate
            self._static_eps = self._split(rate)
            self.static_loss_rate = rate
            self._link_state = None

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
        if self._static_eps is not None:
            eps_good, eps_bad = self._static_eps
        else:
            ls = self._link_state
            if ls is not None:
                # Inline LinkStateCache hit: same bucket arithmetic as
                # reception_prob, without the call frames.
                quantum = ls.quantum
                key = t if quantum <= 0.0 else int(t / quantum)
                if key == ls._prob_key:
                    m = 1.0 - ls._prob
                else:
                    m = 1.0 - ls.reception_prob(t)
            else:
                m = self.mean_loss(t)
            if m != self._last_m:
                self._last_m = m
                self._last_split = self._split(m)
            eps_good, eps_bad = self._last_split
        # Inline the no-flip fast path of the chain advance; the full
        # method only runs when a state flip is actually due.
        chain = self._chain
        if chain._time <= t < chain._next_flip:
            chain._time = t
            return eps_bad if chain._in_bad else eps_good
        return eps_bad if chain.in_bad_state(t) else eps_good

    def loss_eps_window(self, t):
        """``(eps, valid_until)`` for the medium's resolve rows.

        The per-packet probability is pinned until whichever comes
        first: the chain's next state flip, or — when the steering
        target is a :class:`LinkStateCache` — the end of the current
        time-quantum bucket.  The cached probability is one value per
        bucket (a bank samples it at the bucket centre, possibly
        prefilled), so the window never spans a bucket boundary where
        the target could move.  At an *exact* bucket-edge query the
        bound may degenerate to the query time itself (float division
        lands the key either side of the edge); that costs one extra
        refresh, never a stale threshold — asserted by the boundary
        tests in ``tests/test_net_channel.py``.  A generic callable
        target can change at any instant, so its window degenerates to
        the query time (no reuse); ``quantum<=0`` likewise buckets at
        exact query times only, preserving the bitwise guarantee.  The
        body flattens :meth:`loss_eps` inline: the medium calls this
        once per stale row, so the double dispatch would cost more
        than the math.
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
            else:
                m = self.mean_loss(t)
                bound = t
            if m != self._last_m:
                self._last_m = m
                self._last_split = self._split(m)
            eps_good, eps_bad = self._last_split
        # Inline no-flip chain advance (see loss_eps).
        if chain._time <= t < chain._next_flip:
            chain._time = t
            in_bad = chain._in_bad
        else:
            in_bad = chain.in_bad_state(t)
        next_flip = chain._next_flip
        if next_flip < bound:
            bound = next_flip
        return (eps_bad if in_bad else eps_good), bound

    def loss_eps_span(self, t0, t1):
        """Per-bucket thresholds up to the next flip, or ``None``.

        The commitment horizon is the chain's next burst flip (a flip
        moves the good/bad selection, which only the per-query path
        tracks); a flip beyond *t1* commits the whole request.  The
        steering target must be either static or a bucket-centre
        :class:`LinkStateCache` bank, whose buckets are pure functions
        of (link, bucket) and can therefore be read ahead via
        :meth:`~repro.net.propagation.LinkBank.prob_span`.  Each
        bucket's threshold comes from the same scalar :meth:`_split`
        the window path uses, so a committed threshold is bitwise what
        ``loss_eps_window`` would have returned at any instant inside
        the horizon.  The chain advance to *t0* is the same advance a
        window query performs, so planning consumes no randomness
        beyond it.
        """
        chain = self._chain
        if chain._time <= t0 < chain._next_flip:
            chain._time = t0
            in_bad = chain._in_bad
        else:
            in_bad = chain.in_bad_state(t0)
        next_flip = chain._next_flip
        if self._static_eps is not None:
            eps_good, eps_bad = self._static_eps
            return ((eps_bad if in_bad else eps_good), 0.0, 0,
                    next_flip)
        ls = self._link_state
        if ls is None:
            return None  # generic callable target: no validity bound
        bank = ls.bank
        if bank is None:
            return None  # unbanked cache: no read-ahead store
        quantum = ls.quantum
        t_hi = t1 if t1 <= next_flip else next_flip
        k0 = int(t0 / quantum)
        k1 = int(t_hi / quantum)
        probs = bank.prob_span(ls.bank_index, k0, k1)
        if probs is None:
            return None  # before time zero: nothing to read ahead
        # Per-bucket split through the same scalar :meth:`_split` the
        # window path uses (bucket counts are single digits here, so a
        # python loop beats numpy dispatch — and the thresholds are
        # bitwise the window path's by construction).
        split = self._split
        state = 1 if in_bad else 0
        eps = [split(1.0 - p)[state] for p in probs.tolist()]
        return eps, quantum, k0, t_hi

    def is_lost(self, t):
        eps = self.loss_eps(t)
        # Inline buffered uniform draw (see BufferedUniforms).
        i = self._buf_i
        buf = self._buf
        if i >= len(buf):
            buf = self._buf = self.rng.random(self._block).tolist()
            i = 0
        self._buf_i = i + 1
        return buf[i] < eps

    def loss_rate(self, t):
        if self.static_loss_rate is not None:
            return self.static_loss_rate
        return min(max(float(self.mean_loss(t)), 0.0), 1.0)


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

    def __init__(self, rates, rng, t0=0.0, out_of_range_rate=1.0,
                 batch=64):
        self.rates = [float(r) for r in rates]
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"trace loss rate {r} outside [0, 1]")
        self.rng = rng
        self.t0 = float(t0)
        self.out_of_range_rate = float(out_of_range_rate)
        self._draw = BufferedUniforms(rng, block=batch).next

    def loss_rate(self, t):
        idx = int(math.floor(t - self.t0))
        if 0 <= idx < len(self.rates):
            return self.rates[idx]
        return self.out_of_range_rate

    def loss_eps(self, t):
        return self.loss_rate(t)

    def loss_eps_window(self, t):
        """``(eps, valid_until)``: rates hold within a trace second."""
        idx = int(math.floor(t - self.t0))
        if 0 <= idx < len(self.rates):
            return self.rates[idx], self.t0 + idx + 1.0
        if idx < 0:
            return self.out_of_range_rate, self.t0
        return self.out_of_range_rate, math.inf

    def is_lost(self, t):
        return self._draw() < self.loss_rate(t)
