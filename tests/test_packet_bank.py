"""Oracle tests for the ring/bitmap relay bookkeeping (_PacketBank).

PR 6 replaced the basestation's four ``(src, pkt_id)``-keyed dicts
(overhear times, ack suppression, pending relay decisions, considered
tx_ids) with fixed rings of integer-indexed rows.  The replacement
must be observationally identical on protocol-shaped schedules: this
module drives the ring bank and a plain-dict reference implementation
through the exact state machine ``BasestationNode`` runs (overhear,
overheard-ack with bitmap, relay-decision firing) and asserts
query-for-query equality of everything the protocol observes.  A
ring's columns grow with its source's ids, so a second oracle holds a
grown ring to one with every slot allocated up front, and a protocol
run checks that each ring's size follows the ids it holds.
"""

import random

import pytest

from repro.core.node import (
    _BANK_CAPACITY,
    _BANK_MASK,
    _HEARD,
    _RECEIVED_OFFSETS,
    _STORED,
    _SUPPRESSED,
    _PacketBank,
    _SourceRing,
)
from repro.experiments.common import run_protocol_cbr, vanlan_protocol
from repro.testbeds.vanlan import VanLanTestbed


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
            assert slot >= len(ring.ids) or (
                ring.ids[slot] == -1 and ring.flags[slot] == 0)

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
# Grown ring == preallocating ring, query for query
# ----------------------------------------------------------------------

class _PreallocatedRing:
    """Reference: the ring with all ``_BANK_CAPACITY`` slots allocated
    up front, which :class:`_SourceRing` must answer exactly like."""

    def __init__(self):
        self.ids = [-1] * _BANK_CAPACITY
        self.flags = [0] * _BANK_CAPACITY
        self.heard = [0.0] * _BANK_CAPACITY
        self.stored_at = [0.0] * _BANK_CAPACITY
        self.pkt = [None] * _BANK_CAPACITY
        self.considered = [None] * _BANK_CAPACITY

    def claim(self, pkt_id):
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
        i = pkt_id & _BANK_MASK
        return i if self.ids[i] == pkt_id else -1

    def retire_received(self, pkt_id, bitmap):
        for offset in _RECEIVED_OFFSETS[bitmap]:
            candidate = pkt_id - offset
            if candidate < 0:
                break
            i = candidate & _BANK_MASK
            cur = self.ids[i]
            if cur == candidate:
                self.flags[i] = (self.flags[i] | _SUPPRESSED) & ~_STORED
            elif cur < candidate:
                self.ids[i] = candidate
                self.flags[i] = _SUPPRESSED
                self.considered[i] = None
            else:
                continue
            self.pkt[i] = None


def _row(ring, i):
    return (ring.ids[i], ring.flags[i], ring.heard[i], ring.stored_at[i],
            ring.pkt[i], ring.considered[i])


def _drive_rings(n_ops, seed, first_id):
    """A seeded schedule of claims, probes and retirements through a
    grown and a preallocated ring.

    Ids rise from *first_id* with gaps; claims also revisit recent ids
    (duplicates), acks mostly trail the newest id but are sometimes
    over a ring's depth late, and probes range from long-recycled ids
    to ids not yet seen.  Every claimed row gets the same random
    contents in both rings.  Returns the number of ids passed and the
    mismatches, each as ``(op, call, pkt_id, grown, preallocated)``.
    """
    rng = random.Random(seed)
    grown, full = _SourceRing(), _PreallocatedRing()
    top = first_id
    mismatches = []
    for op in range(n_ops):
        roll = rng.random()
        if roll < 0.45:
            if rng.random() < 0.75:
                pkt_id = top
                top += rng.randrange(1, 4)
            else:
                pkt_id = max(0, top - rng.randrange(1, 40))
            got, want = grown.claim(pkt_id), full.claim(pkt_id)
            if got != want:
                mismatches.append((op, "claim", pkt_id, got, want))
            elif got >= 0:
                contents = (rng.randrange(8), rng.random(), rng.random(),
                            ("copy", op), rng.choice((None, [op])))
                for ring in (grown, full):
                    (ring.flags[got], ring.heard[got], ring.stored_at[got],
                     ring.pkt[got], ring.considered[got]) = contents
        elif roll < 0.75:
            late = rng.randrange(900, 1300) if rng.random() < 0.1 \
                else rng.randrange(1, 20)
            pkt_id = max(0, top - late)
            bitmap = rng.randrange(256)
            got = grown.retire_received(pkt_id, bitmap)
            want = full.retire_received(pkt_id, bitmap)
            if got != want:
                mismatches.append((op, "retire", pkt_id, got, want))
        else:
            pkt_id = max(0, top + rng.randrange(-1300, 600))
            got, want = grown.probe(pkt_id), full.probe(pkt_id)
            if got != want or (got >= 0 and _row(grown, got)
                               != _row(full, want)):
                mismatches.append((op, "probe", pkt_id, got, want))
    return top - first_id, mismatches


class TestGrownRing:
    def test_new_ring_allocates_no_slot(self):
        ring = _SourceRing()
        assert ring.ids == ring.flags == ring.heard == []
        assert ring.stored_at == ring.pkt == ring.considered == []
        assert ring.probe(0) == -1

    def test_columns_grow_to_a_power_of_two(self):
        ring = _SourceRing()
        ring.claim(0)
        assert len(ring.ids) == 64
        ring.claim(64)
        assert len(ring.ids) == 128
        ring.retire_received(301, 0)
        assert len(ring.ids) == 512
        ring.claim(_BANK_CAPACITY + 3)
        for column in (ring.ids, ring.flags, ring.heard, ring.stored_at,
                       ring.pkt, ring.considered):
            assert len(column) == _BANK_CAPACITY

    @pytest.mark.parametrize("first_id", [0, 1500])
    def test_schedule_matches_preallocated_ring(self, first_id):
        """Rising ids with duplicates and late acks, wrapping the ring
        past ``_BANK_CAPACITY`` ids (from a first id of 0, and of more
        than the capacity)."""
        passed, mismatches = _drive_rings(6000, seed=11, first_id=first_id)
        assert passed > 2 * _BANK_CAPACITY
        assert mismatches == [], mismatches[:5]


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


# ----------------------------------------------------------------------
# Rings of a protocol run
# ----------------------------------------------------------------------

def test_run_rings_are_sized_by_the_ids_they_hold():
    """After 30 s of VanLAN CBR no basestation keeps a ring for its own
    packets, and every ring holds at most twice the slots its highest
    id needs (at least 64, at most the capacity)."""
    sim, _ = vanlan_protocol(VanLanTestbed(seed=0), trip=0, seed=0,
                             prefill=31.0)
    run_protocol_cbr(sim, 30.0)
    n_rings = 0
    for bs_id, bs in sim.bs_nodes.items():
        rings = bs._packets._rings
        assert bs_id not in rings
        for ring in rings.values():
            n_rings += 1
            size = len(ring.ids)
            assert {len(ring.flags), len(ring.heard), len(ring.stored_at),
                    len(ring.pkt), len(ring.considered)} == {size}
            assert size <= min(max(64, 2 * (max(ring.ids) + 1)),
                               _BANK_CAPACITY)
    assert n_rings > 0
