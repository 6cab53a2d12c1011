"""Relay-probability computation (Section 4.4 and Section 5.5.1).

When an auxiliary BS hears a data packet but not its acknowledgment, it
must decide *locally* whether to relay.  ViFi's guidelines:

* **G1** — account for the relaying decisions other auxiliaries are
  making;
* **G2** — prefer auxiliaries with better connectivity to the
  destination;
* **G3** — limit the *expected number of relayed transmissions* (to 1).

With auxiliaries ``B_1..B_K``, source ``s`` and destination ``d``, and
``p_ab`` the probability that ``b`` receives a transmission from ``a``:

* the probability that ``B_i`` is *contending* (heard the packet, did
  not hear the ack) is ``c_i = p(s,Bi) * (1 - p(s,d) * p(d,Bi))``
  (Eq. 3);
* relay probabilities satisfy ``sum_i c_i * r_i = 1`` (Eq. 1) with
  ``r_i / r_j = p(Bi,d) / p(Bj,d)`` (Eq. 2), i.e. ``r_i = r * p(Bi,d)``;
* each contender solves for ``r`` and relays with probability
  ``min(r * p(Bx,d), 1)``.

The three ablations of Section 5.5.1 each violate one guideline and are
compared in Table 2:

* ``NotG1`` (:class:`IgnoreOthersStrategy`) — ignore other
  auxiliaries; relay with probability ``p(Bx,d)``.
* ``NotG2`` (:class:`IgnoreDestConnectivityStrategy`) — ignore
  connectivity to the destination; relay with probability
  ``1 / sum_i c_i``.
* ``NotG3`` (:class:`ExpectedDeliveryStrategy`) — make the expected
  number of packets *received by the destination* equal 1 (instead of
  the expected number *relayed*), via the greedy water-filling solution
  the paper derives.
"""

from dataclasses import dataclass

__all__ = [
    "ExpectedDeliveryStrategy",
    "IgnoreDestConnectivityStrategy",
    "IgnoreOthersStrategy",
    "RelayContext",
    "RelayStrategy",
    "ViFiRelayStrategy",
    "contention_probability",
    "make_strategy",
]


def contention_probability(p, src, dst, aux):
    """Eq. 3: probability that *aux* is contending on a packet.

    ``c_i = p(s -> Bi) * (1 - p(s -> d) * p(d -> Bi))``: the auxiliary
    received the original transmission and did not hear the (possibly
    never sent) acknowledgment; the two events are treated as
    independent.
    """
    return p(src, aux) * (1.0 - p(src, dst) * p(dst, aux))


@dataclass
class RelayContext:
    """Inputs to a relay decision.

    A strategy reads every reception probability it needs through *p*:
    the deciding auxiliary's own estimates, learned from beacons
    (Section 4.6).

    Attributes:
        self_id: the deciding auxiliary.
        aux_ids: the *current* set of auxiliary BSes (including
            ``self_id``), as designated by the vehicle's beacons.
        src: packet source (vehicle upstream, anchor downstream).
        dst: packet destination.
        p: callable ``(a, b) -> float`` returning the estimated
            reception probability from *a* to *b* (0 when unknown).
    """

    self_id: int
    aux_ids: tuple
    src: int
    dst: int
    p: object


class RelayStrategy:
    """Interface: map a :class:`RelayContext` to a relay probability."""

    name = "base"

    def relay_probability(self, ctx):
        raise NotImplementedError


class ViFiRelayStrategy(RelayStrategy):
    """The ViFi formulation: Eqs. 1-3, honoring G1, G2 and G3."""

    name = "vifi"

    def relay_probability(self, ctx):
        """Solve ``sum_i c_i * (r * p_i_d) = 1`` and return own r_x.

        When no auxiliary has usable connectivity information the
        denominator degenerates to zero; the deciding BS then falls
        back to relaying outright (probability 1), which errs toward a
        false positive instead of certainly losing the packet — the
        sensible default when a lone BS has no peer information.
        """
        p = ctx.p
        src, dst = ctx.src, ctx.dst
        p_src_dst = p(src, dst)  # loop-invariant factor of Eq. 3
        denominator = 0.0
        for aux in ctx.aux_ids:
            c_i = p(src, aux) * (1.0 - p_src_dst * p(dst, aux))
            denominator += c_i * p(aux, dst)
        if denominator <= 0.0:
            return 1.0
        own = p(ctx.self_id, dst)
        if own <= 0.0:
            # No known path to the destination; Eq. 2 assigns zero
            # weight (and guards inf * 0 when the denominator is
            # subnormal).
            return 0.0
        r = 1.0 / denominator
        return min(r * own, 1.0)


class IgnoreOthersStrategy(RelayStrategy):
    """Ablation NotG1: each auxiliary decides as if it were alone.

    "Each relays with a probability equal to its delivery ratio to the
    destination."  With many auxiliaries this over-relays: the paper
    observes its false-positive rate grows rapidly with the number of
    auxiliary BSes.
    """

    name = "not-g1"

    def relay_probability(self, ctx):
        return min(max(ctx.p(ctx.self_id, ctx.dst), 0.0), 1.0)


class IgnoreDestConnectivityStrategy(RelayStrategy):
    """Ablation NotG2: ignore who is better placed to deliver.

    "Each relays with a probability equal to ``1 / sum_i c_i``" — the
    expected number of relays is still one (G3 holds), but a poorly
    connected auxiliary relays as often as a well connected one, so
    relays are wasted.
    """

    name = "not-g2"

    def relay_probability(self, ctx):
        total_contention = 0.0
        for aux in ctx.aux_ids:
            total_contention += contention_probability(
                ctx.p, ctx.src, ctx.dst, aux
            )
        if total_contention <= 0.0:
            return 1.0
        return min(1.0 / total_contention, 1.0)


class ExpectedDeliveryStrategy(RelayStrategy):
    """Ablation NotG3: expect one packet *received*, not one *relayed*.

    The optimization ``min sum_i r_i c_i`` subject to
    ``sum_i r_i p(Bi,d) c_i >= 1`` has the greedy water-filling
    solution the paper gives: order auxiliaries by descending
    ``p(Bi,d)``; set ``r_i = 1`` until the constraint is met, then give
    the marginal auxiliary the fractional remainder:

    * ``r_i = 0``            if ``s_i > 1``
    * ``r_i = 1``            if ``s_i + p(Bi,d) * c_i < 1``
    * ``r_i = (1 - s_i) / (p(Bi,d) * c_i)``  otherwise,

    where ``s_i = sum over j with p(Bj,d) >= p(Bi,d), j != i of
    p(Bj,d) * c_j * r_j`` accumulated greedily.  Because at least one
    relayed copy must arrive in expectation, the number of relayed
    transmissions balloons when links are weak — Table 2 measures 157%
    false positives.
    """

    name = "not-g3"

    def relay_probability(self, ctx):
        p = ctx.p
        entries = []
        for aux in ctx.aux_ids:
            c_i = contention_probability(p, ctx.src, ctx.dst, aux)
            entries.append((p(aux, ctx.dst), c_i, aux))
        # Descending delivery probability; deterministic tie-break.
        entries.sort(key=lambda e: (-e[0], e[2]))
        accumulated = 0.0
        for p_id, c_i, aux in entries:
            contribution = p_id * c_i
            if accumulated > 1.0:
                r_i = 0.0
            elif accumulated + contribution < 1.0:
                r_i = 1.0
            elif contribution > 0.0:
                r_i = (1.0 - accumulated) / contribution
            else:
                r_i = 0.0
            if aux == ctx.self_id:
                return min(max(r_i, 0.0), 1.0)
            accumulated += contribution * r_i
        return 0.0


_STRATEGIES = {
    cls.name: cls
    for cls in (
        ViFiRelayStrategy,
        IgnoreOthersStrategy,
        IgnoreDestConnectivityStrategy,
        ExpectedDeliveryStrategy,
    )
}


def make_strategy(name):
    """Instantiate a relay strategy by name.

    Known names: ``"vifi"``, ``"not-g1"``, ``"not-g2"``, ``"not-g3"``.
    """
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown relay strategy {name!r}; "
            f"choose from {sorted(_STRATEGIES)}"
        ) from None
