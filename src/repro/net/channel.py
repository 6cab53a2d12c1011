"""Packet-loss processes.

The measurement study (Section 3.4.2, Figure 6) shows that vehicular
WiFi losses are *bursty*: the probability of losing packet ``i+1`` after
losing packet ``i`` is far higher than the unconditional loss rate, and
the excess decays over hundreds of packets.  The classic model with this
behaviour is the Gilbert-Elliott two-state Markov channel, which we use
throughout.

The medium (:class:`~repro.net.medium.WirelessMedium`) is the only
caller of a loss process.  Four processes are provided:

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
  methodology.  The trace-driven runs steer a burst chain by default,
  and reach this process only through ``bursty=False`` (see
  :func:`~repro.experiments.common.dieselnet_protocol`).

Both trace-driven uses read the per-second series through
:class:`RateSeries`.  A steering target that knows when it next
changes says so through ``rate_window(t) -> (rate, valid_until)``: a
:class:`RateSeries` for beacon traces, a
:class:`~repro.net.propagation.LinkBank` member for the deployment
radio model.

The probe traces and Figure 6 draw their losses outside any medium,
over a fixed grid of probe instants, through :func:`steered_losses`:
one steered chain per stream, which flips its own coins.
"""

import math

import numpy as np

from repro.sim.rng import BufferedUniforms

__all__ = [
    "BernoulliLoss",
    "GilbertElliottLoss",
    "LossProcess",
    "RateSeries",
    "SteeredGilbertElliott",
    "TraceDrivenLoss",
    "steer_split",
    "steered_losses",
]

#: The steered chain's mean good and bad holding times (s) and its
#: good/bad loss ratio: engineering choices (the paper shows that
#: losses are bursty, Figure 6(a), but gives no model).
STEER_GOOD_S = 0.9
STEER_BAD_S = 0.12
STEER_RHO = 0.08


def steer_split(m):
    """Split a steered chain's target mean loss *m* into
    ``(eps_good, eps_bad)``.

    * ``eps_bad = min(1, m / (pi_bad + rho * (1 - pi_bad)))``
    * ``eps_good = rho * eps_bad``

    where ``pi_bad`` is the chain's stationary bad-state probability
    and ``rho`` the good/bad loss ratio, :data:`STEER_RHO`.  When the
    target is so lossy that ``eps_bad`` clips at 1, the remainder is
    pushed into the good state, preserving the mean exactly.
    """
    m = min(max(float(m), 0.0), 1.0)
    pi_b = STEER_BAD_S / (STEER_GOOD_S + STEER_BAD_S)
    eps_bad = m / (pi_b + STEER_RHO * (1.0 - pi_b))
    if eps_bad <= 1.0:
        return STEER_RHO * eps_bad, eps_bad
    eps_good = (m - pi_b) / (1.0 - pi_b)
    return min(eps_good, 1.0), 1.0


def steered_losses(times, loss, rng):
    """One probe's loss at each instant of a fixed grid.

    Walks one steered Gilbert-Elliott chain (see
    :class:`SteeredGilbertElliott`) over the increasing instants of the
    array *times* and flips one coin per instant.  At ``times[k]`` the
    loss probability is the current state's share of the target loss
    ``loss[k]`` (:func:`steer_split`).

    The holding times and the coins share the one stream *rng*, in the
    order the probe-trace pins hold with: the initial state, the first
    holding time, then per instant one scalar ``rng.exponential`` per
    due flip and one coin from a
    :class:`~repro.sim.rng.BufferedUniforms` block.  The blocks
    interleave with the holding times, so unbuffered coins would give
    another (statistically equivalent) realization.

    Returns:
        A bool array, True where the probe is lost.
    """
    draw = BufferedUniforms(rng).next
    in_bad = bool(rng.random() < STEER_BAD_S / (STEER_GOOD_S + STEER_BAD_S))
    next_flip = rng.exponential(STEER_BAD_S if in_bad else STEER_GOOD_S)
    lost = np.empty(len(times), dtype=bool)
    for k, (t, m) in enumerate(zip(times.tolist(), loss.tolist())):
        while next_flip <= t:
            in_bad = not in_bad
            next_flip += rng.exponential(
                STEER_BAD_S if in_bad else STEER_GOOD_S)
        eps_good, eps_bad = steer_split(m)
        lost[k] = draw() < (eps_bad if in_bad else eps_good)
    return lost


class LossProcess:
    """Interface: the loss of a transmission at time *t*, for the
    medium.

    ``static_loss_rate`` is the expected loss rate when it never
    changes over time, else ``None``.
    :meth:`~repro.net.medium.LinkTable.in_range` answers such links
    from it instead of calling :meth:`loss_rate` on every refresh.

    The processes separate *state advance* from the per-packet coin
    flip: ``loss_eps_window(t) -> (eps, valid_until)`` advances any
    internal state to *t* and returns the instantaneous per-packet loss
    probability, without consuming a uniform draw, together with how
    long it stays valid: the loss probability cannot change before
    ``valid_until`` (the next burst-chain flip, steering-bucket
    boundary, or trace-second boundary, whichever comes first).  Every
    process on a medium link supplies ``loss_eps_window``.  The medium
    (:class:`~repro.net.medium.WirelessMedium`) stores these
    thresholds in its struct-of-arrays resolve rows, reuses each while
    its window holds — bitwise-safe because a skipped no-flip state
    advance consumes no randomness and a pending flip caps the window
    — and draws every frame's uniforms itself, off one batched
    outcome stream.  A process draws no coin: its stream, if it has
    one, serves only its state.
    """

    static_loss_rate = None

    def loss_rate(self, t):
        """Return the expected loss probability around time *t*."""
        raise NotImplementedError


class BernoulliLoss(LossProcess):
    """Independent losses with a fixed probability."""

    def __init__(self, p):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability {p} outside [0, 1]")
        self.p = float(p)
        self.static_loss_rate = self.p

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

    *rng* draws the initial state and the first holding time as
    scalars, then every later holding time from blocks of
    ``standard_exponential`` scaled by the state's mean.
    """

    #: Holding times drawn per refill.
    _HOLDING_BLOCK = 16

    def __init__(self, eps_good, eps_bad, good_duration, bad_duration, rng):
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
        self._next_flip = rng.exponential(mean)
        self._time = 0.0
        self.static_loss_rate = (
            self.pi_bad * self.eps_bad + (1 - self.pi_bad) * self.eps_good
        )
        # Standard-exponential draws as python floats, served from
        # _holding_i on.
        self._holding = ()
        self._holding_i = 0

    @property
    def pi_bad(self):
        """Stationary probability of the bad state."""
        return self.bad_duration / (self.good_duration + self.bad_duration)

    def _advance(self, t):
        if t < self._time:
            raise ValueError(
                f"loss process queried backwards in time: {t} < {self._time}"
            )
        block = self._holding
        while self._next_flip <= t:
            self._in_bad = not self._in_bad
            mean = self.bad_duration if self._in_bad else self.good_duration
            i = self._holding_i
            if i >= len(block):
                block = self._holding = self.rng.standard_exponential(
                    self._HOLDING_BLOCK).tolist()
                i = 0
            self._holding_i = i + 1
            self._next_flip += mean * block[i]
        self._time = t

    def loss_eps_window(self, t):
        """``(eps, valid_until)``: eps cannot change before the flip."""
        self._advance(t)
        eps = self.eps_bad if self._in_bad else self.eps_good
        return eps, self._next_flip

    def loss_rate(self, t):
        return self.static_loss_rate


class SteeredGilbertElliott(LossProcess):
    """Gilbert-Elliott burstiness steered to a target mean loss rate.

    Given a target ``mean_loss`` giving the loss rate at time *t* (from
    path loss, shadowing, gray periods, or a beacon trace), the
    per-state loss probabilities are re-derived whenever the target
    moves (:func:`steer_split`), so the instantaneous expectation
    matches the target while the good/bad alternation supplies burst
    structure.  The chain holds each state for exponential times of
    mean :data:`STEER_GOOD_S` and :data:`STEER_BAD_S`.

    The target is one of two kinds, recognized at construction; the
    kind decides how far :meth:`loss_eps_window` reaches past the query
    time:

    * a float, for links whose target rate never changes (e.g. static
      BS-BS links): the per-state split is computed once, and the
      window reaches the chain's next state flip;
    * an object with a ``rate_window(t) -> (rate, valid_until)``
      method: the :class:`RateSeries` of a per-second trace that
      :func:`~repro.testbeds.lossmap.build_link_table_from_log` passes,
      or a :meth:`~repro.net.propagation.LinkBank.members` target,
      whose rate holds for one time bucket.  The window reaches the
      next change of the target or the flip, whichever comes first.
    """

    def __init__(self, mean_loss, rng):
        self._chain = GilbertElliottLoss(
            eps_good=0.0,
            eps_bad=1.0,
            good_duration=STEER_GOOD_S,
            bad_duration=STEER_BAD_S,
            rng=rng,
        )
        # The split depends only on the target mean, and the target is
        # piecewise-constant in practice (bank buckets, per-second
        # traces), so memoize the last split.
        self._last_m = None
        self._last_split = (0.0, 0.0)
        self._rate_window = getattr(mean_loss, "rate_window", None)
        self._static_eps = None
        if self._rate_window is None:
            rate = min(max(float(mean_loss), 0.0), 1.0)
            self._static_eps = steer_split(rate)
            self.static_loss_rate = rate

    def loss_eps_window(self, t):
        """``(eps, valid_until)`` for the medium's resolve rows.

        The per-packet probability is pinned until whichever comes
        first: the chain's next state flip, or the next instant the
        target can move.  A float target never moves.  A target with
        ``rate_window`` reports the bound itself: for a bank member,
        the end of the current time bucket (the bank samples one value
        per bucket, at its centre, possibly prefilled), so the window
        never spans a bucket boundary.  At an *exact* bucket-edge query
        the bound may degenerate to the query time itself (float
        division lands the key either side of the edge); that costs one
        extra refresh, never a stale threshold.  For a per-second trace
        series the bound is the next trace second, and never past the
        trace end, where the out-of-range rate holds and only flips
        bound the window.  The boundary tests in
        ``tests/test_net_channel.py`` assert these bounds.  The medium
        calls this once per stale row, so the chain advance runs
        inline.
        """
        chain = self._chain
        if self._static_eps is not None:
            eps_good, eps_bad = self._static_eps
            bound = math.inf
        else:
            m, bound = self._rate_window(t)
            if m != self._last_m:
                self._last_m = m
                self._last_split = steer_split(m)
            eps_good, eps_bad = self._last_split
        # Inline the no-flip fast path of the chain advance; the full
        # method only runs when a state flip is actually due.
        if chain._time <= t < chain._next_flip:
            chain._time = t
        else:
            chain._advance(t)
        next_flip = chain._next_flip
        if next_flip < bound:
            bound = next_flip
        return (eps_bad if chain._in_bad else eps_good), bound

    def loss_rate(self, t):
        if self.static_loss_rate is not None:
            return self.static_loss_rate
        return min(max(float(self._rate_window(t)[0]), 0.0), 1.0)


class RateSeries:
    """A per-second loss-rate series, read at simulated time *t*.

    Second ``k`` of the series covers ``[t0 + k, t0 + k + 1)``, and
    ``out_of_range_rate`` holds outside the series.
    :meth:`rate_window` gives the rate at *t* and says when it next
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
        t0: trace start time.
        out_of_range_rate: loss rate applied outside the trace span.
    """

    def __init__(self, rates, t0=0.0, out_of_range_rate=1.0):
        self.rates = [float(r) for r in rates]
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"trace loss rate {r} outside [0, 1]")
        self._series = RateSeries(self.rates, float(t0),
                                  float(out_of_range_rate))

    def loss_rate(self, t):
        return self._series.rate_window(t)[0]

    def loss_eps_window(self, t):
        """``(eps, valid_until)``: rates hold within a trace second."""
        return self._series.rate_window(t)
