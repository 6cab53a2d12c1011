"""Oracle tests for the ring/bitmap relay bookkeeping (_PacketBank).

PR 6 replaced the basestation's four ``(src, pkt_id)``-keyed dicts
(overhear times, ack suppression, pending relay decisions, considered
tx_ids) with fixed rings of integer-indexed rows.  The replacement
must be observationally identical on protocol-shaped schedules: this
module drives the ring bank and a plain-dict reference implementation
through the exact state machine ``BasestationNode`` runs (overhear,
overheard-ack with bitmap, relay-decision firing) and asserts
query-for-query equality of everything the protocol observes.
"""

import random

import pytest

from repro.core.node import (
    _BANK_CAPACITY,
    _HEARD,
    _STORED,
    _SUPPRESSED,
    _PacketBank,
    _SourceRing,
)


# ----------------------------------------------------------------------
# Reference implementation: the pre-PR 6 dict semantics
# ----------------------------------------------------------------------

class _DictAux:
    """Dict-keyed reference for the auxiliary-relay state machine."""

    def __init__(self):
        self._heard = {}        # (src, pkt_id) -> latest overhear time
        self._suppressed = set()
        self._stored = {}       # (src, pkt_id) -> (payload, stored_at)
        self._considered = {}   # (src, pkt_id) -> [tx_id, ...]

    def overhear(self, src, pkt_id, tx_id, now, is_relay):
        key = (src, pkt_id)
        self._heard[key] = now
        if is_relay:
            return "relay-copy"
        if key in self._suppressed:
            return "suppressed"
        if tx_id in self._considered.get(key, ()):
            return "considered"
        if key in self._stored:
            _, stored_at = self._stored[key]
            self._stored[key] = ((src, pkt_id, tx_id), stored_at)
            return "refreshed"
        self._stored[key] = ((src, pkt_id, tx_id), now)
        return "stored"

    def ack(self, src, pkt_id, bitmap, now):
        key = (src, pkt_id)
        gap = now - self._heard[key] if key in self._heard else None
        self._suppressed.add(key)
        self._heard.pop(key, None)
        self._stored.pop(key, None)
        for k in range(8):
            candidate = pkt_id - 1 - k
            if candidate >= 0 and not bitmap & (1 << k):
                ckey = (src, candidate)
                # Bitmap suppression retires the relay candidate but
                # keeps the overhear time (a direct ack may still want
                # a gap sample).
                self._suppressed.add(ckey)
                self._stored.pop(ckey, None)
        return gap

    def fire(self, src, pkt_id):
        key = (src, pkt_id)
        if key not in self._stored:
            return None
        payload, stored_at = self._stored.pop(key)
        self._considered.setdefault(key, []).append(payload[2])
        return payload, stored_at


class _RingAux:
    """The same state machine over ``_PacketBank`` — the literal
    claim/flag sequences ``BasestationNode`` executes, with the ack's
    bitmap range retired by the ring method it calls."""

    def __init__(self):
        self._bank = _PacketBank()

    def overhear(self, src, pkt_id, tx_id, now, is_relay):
        ring = self._bank.ring(src)
        row = ring.claim(pkt_id)
        flags = 0
        if row >= 0:
            flags = ring.flags[row] | _HEARD
            ring.flags[row] = flags
            ring.heard[row] = now
        if is_relay:
            return "relay-copy"
        if row < 0:
            return "stale"
        if flags & _SUPPRESSED:
            return "suppressed"
        considered = ring.considered[row]
        if considered is not None and tx_id in considered:
            return "considered"
        if flags & _STORED:
            ring.pkt[row] = (src, pkt_id, tx_id)
            return "refreshed"
        ring.flags[row] = flags | _STORED
        ring.pkt[row] = (src, pkt_id, tx_id)
        ring.stored_at[row] = now
        return "stored"

    def ack(self, src, pkt_id, bitmap, now):
        ring = self._bank.ring(src)
        row = ring.claim(pkt_id)
        gap = None
        if row >= 0:
            flags = ring.flags[row]
            if flags & _HEARD:
                gap = now - ring.heard[row]
            ring.flags[row] = (flags | _SUPPRESSED) & ~(_HEARD | _STORED)
            ring.pkt[row] = None
        ring.retire_received(pkt_id, bitmap)
        return gap

    def fire(self, src, pkt_id):
        ring = self._bank.ring(src)
        row = ring.probe(pkt_id)
        if row < 0 or not ring.flags[row] & _STORED:
            return None
        payload = ring.pkt[row]
        stored_at = ring.stored_at[row]
        ring.flags[row] &= ~_STORED
        ring.pkt[row] = None
        considered = ring.considered[row]
        if considered is None:
            considered = ring.considered[row] = []
        considered.append(payload[2])
        return payload, stored_at


# ----------------------------------------------------------------------
# Ring primitives
# ----------------------------------------------------------------------

class TestSourceRing:
    def test_claim_allocates_and_finds(self):
        ring = _SourceRing()
        row = ring.claim(7)
        assert row == 7
        assert ring.claim(7) == row
        assert ring.probe(7) == row
        assert ring.probe(8) == -1

    def test_claim_recycles_older_occupant(self):
        ring = _SourceRing()
        row = ring.claim(3)
        ring.flags[row] = _HEARD | _STORED
        ring.pkt[row] = "old"
        ring.considered[row] = [1]
        newer = 3 + _BANK_CAPACITY
        assert ring.claim(newer) == row
        # The recycled row starts clean.
        assert ring.flags[row] == 0
        assert ring.pkt[row] is None
        assert ring.considered[row] is None
        assert ring.probe(3) == -1

    def test_claim_refuses_stale_ids(self):
        """A slot owned by a newer id rejects the ancient claimant."""
        ring = _SourceRing()
        ring.claim(5 + _BANK_CAPACITY)
        assert ring.claim(5) == -1

    def test_retire_received_skips_ids_below_zero(self):
        """An ack for id 2 reports at most ids 1 and 0; the window's
        negative ids claim nothing, even in slots that wrap."""
        ring = _SourceRing()
        ring.retire_received(2, 0)
        assert ring.flags[1] == ring.flags[0] == _SUPPRESSED
        assert ring.ids[1] == 1 and ring.ids[0] == 0
        for slot in range(_BANK_CAPACITY - 6, _BANK_CAPACITY):
            assert ring.ids[slot] == -1
            assert ring.flags[slot] == 0

    def test_retire_received_leaves_newer_owner_alone(self):
        """A slot owned by a newer id keeps that row untouched."""
        ring = _SourceRing()
        newer = 5 + _BANK_CAPACITY
        row = ring.claim(newer)
        ring.flags[row] = _HEARD | _STORED
        ring.pkt[row] = "live"
        ring.considered[row] = [9]
        ring.retire_received(6, 0)  # window 5..0; id 5 shares the slot
        assert ring.ids[row] == newer
        assert ring.flags[row] == _HEARD | _STORED
        assert ring.pkt[row] == "live"
        assert ring.considered[row] == [9]
        assert ring.probe(5) == -1

    def test_retire_received_recycles_older_occupant(self):
        """An older occupant is recycled: the row ends suppressed, with
        its candidate copy and considered tx_ids cleared."""
        ring = _SourceRing()
        row = ring.claim(3)
        ring.flags[row] = _HEARD | _STORED
        ring.pkt[row] = "old"
        ring.considered[row] = [1]
        newer = 3 + _BANK_CAPACITY
        ring.retire_received(newer + 1, 0)
        assert ring.probe(newer) == row
        assert ring.flags[row] == _SUPPRESSED
        assert ring.pkt[row] is None
        assert ring.considered[row] is None

    def test_bank_ring_cache(self):
        bank = _PacketBank()
        a = bank.ring(1)
        b = bank.ring(2)
        assert a is not b
        assert bank.ring(1) is a
        assert bank.ring(2) is b


# ----------------------------------------------------------------------
# Oracle: ring == dicts, query for query
# ----------------------------------------------------------------------

def _drive(n_ops, seed):
    """Run a protocol-shaped random schedule through both banks.

    Shape mirrors a trip: per-source monotone pkt_ids with bounded
    reordering (retransmitted copies of recent ids carry fresh
    tx_ids), acks trailing data with random bitmaps, and decision
    timers firing for recently stored packets — the same access
    pattern ``BasestationNode`` generates, ids always well inside the
    ring window.
    """
    rng = random.Random(seed)
    ring_aux, dict_aux = _RingAux(), _DictAux()
    next_id = {0: 0, 1: 0}
    tx_id = 0
    now = 0.0
    mismatches = []
    ops = 0
    for _ in range(n_ops):
        now += rng.random() * 0.01
        src = rng.randrange(2)
        roll = rng.random()
        if roll < 0.5:
            # Overhear a data copy: usually the next fresh id, else a
            # retransmission/relay of a recent one.
            if rng.random() < 0.7 or next_id[src] == 0:
                pkt_id = next_id[src]
                next_id[src] += 1
            else:
                lag = rng.randrange(1, 30)
                pkt_id = max(0, next_id[src] - lag)
            tx_id += 1
            is_relay = rng.random() < 0.1
            got = ring_aux.overhear(src, pkt_id, tx_id, now, is_relay)
            want = dict_aux.overhear(src, pkt_id, tx_id, now, is_relay)
        elif roll < 0.8:
            # Overheard ack for a recent id, with a random bitmap.
            if next_id[src] == 0:
                continue
            pkt_id = max(0, next_id[src] - rng.randrange(1, 20))
            bitmap = rng.randrange(256)
            got = ring_aux.ack(src, pkt_id, bitmap, now)
            want = dict_aux.ack(src, pkt_id, bitmap, now)
        else:
            # A relay-decision timer fires for a recent id.
            if next_id[src] == 0:
                continue
            pkt_id = max(0, next_id[src] - rng.randrange(1, 20))
            got = ring_aux.fire(src, pkt_id)
            want = dict_aux.fire(src, pkt_id)
        ops += 1
        if got != want:
            mismatches.append((ops, src, pkt_id, got, want))
    return ops, mismatches


class TestPacketBankOracle:
    def test_short_schedule_matches_dict_reference(self):
        ops, mismatches = _drive(3000, seed=7)
        assert ops > 2500
        assert mismatches == []

    @pytest.mark.slow
    def test_long_schedules_match_dict_reference(self):
        """Tentpole acceptance: bit-for-bit across seeds and scales."""
        for seed in range(5):
            ops, mismatches = _drive(40000, seed=seed)
            assert ops > 35000
            assert mismatches == [], mismatches[:5]
