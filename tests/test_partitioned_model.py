"""Model-based differential test for :class:`PartitionedBuffer`.

The buffer keeps its slots *lazily* ordered (append on insert, sort when
the order is observed) yet must be indistinguishable — returned lists and
their order, ``delete`` results, ``next_expiry``, ``probe`` results and
every counter, ``touches`` included — from the naive structure the paper
describes: one eagerly exp-sorted list per slot.  :class:`SortedSlots` is
that naive structure; hypothesis drives both with the same operations.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

from hypothesis import given, settings, strategies as st
import pytest

from repro import Counters, Tuple
from repro.buffers import PartitionedBuffer
from repro.core.tuples import matches_deletion

SPAN = 10.0


def _exp(t):
    return t.exp


def value_key(t):
    return t.values[0]


class SortedSlots:
    """Reference: every slot exp-sorted at all times (``insort`` on insert),
    charged with the paper's deterministic touch policy."""

    def __init__(self, n, keyed):
        self.n, self.width, self.keyed = n, SPAN / n, keyed
        self.slots = [[] for _ in range(n)]
        self.arrival = []  # stored tuples in insertion order (the index)
        self.counters = Counters()

    def _slot(self, exp):
        return self.slots[int(exp // self.width) % self.n]

    def insert(self, t):
        part = self._slot(t.exp)
        if not part or t.exp >= part[-1].exp:
            part.append(t)
            self.counters.touches += 1
        else:
            insort(part, t, key=_exp)
            self.counters.touches += max(1, int(math.log2(len(part))) + 1)
        self.counters.inserts += 1
        self.arrival.append(t)

    def insert_many(self, tuples):
        for t in tuples:
            self.insert(t)

    def delete(self, t):
        part = self._slot(t.exp)
        i = bisect_left(part, t.exp, key=_exp)
        self.counters.touches += max(1, int(math.log2(len(part) + 1)) + 1)
        while i < len(part) and part[i].exp == t.exp:
            self.counters.touches += 1
            if matches_deletion(part[i], t):
                self._forget(part.pop(i))
                self.counters.deletes += 1
                return True
            i += 1
        return False

    def purge_expired(self, now):
        expired = []
        for part in self.slots:
            if not part:
                continue
            if part[-1].exp <= now:
                self.counters.touches += len(part)
                expired.extend(part)
                part.clear()
            elif part[0].exp <= now:
                head = [t for t in part if t.exp <= now]
                del part[:len(head)]
                self.counters.touches += len(head) + 1
                expired.extend(head)
        for t in expired:
            self._forget(t)
        self.counters.expirations += len(expired)
        return expired

    def _forget(self, t):
        # Identity, not equality: equal tuples are distinct stored copies.
        del self.arrival[next(i for i, s in enumerate(self.arrival)
                              if s is t)]

    def next_expiry(self, now):
        return min((t.exp for t in self.arrival if t.exp > now),
                   default=math.inf)

    def probe(self, key, now):
        bucket = [t for t in self.arrival if value_key(t) == key]
        self.counters.probes += 1
        self.counters.touches += len(bucket)
        return [t for t in bucket if t.exp > now]


# Expirations on a half-unit grid over four spans: slots see ties, several
# epochs at once (a lagging purge), and out-of-order appends.
exps = st.integers(1, 80).map(lambda i: i / 2)
clocks = st.integers(0, 84).map(lambda i: i / 2)
values = st.integers(0, 2)
operations = st.lists(st.one_of(
    st.tuples(st.just("insert"), values, exps),
    st.tuples(st.just("insert_many"),
              st.lists(st.tuples(values, exps), max_size=6)),
    st.tuples(st.just("delete"), st.integers(0, 40)),     # a stored tuple
    st.tuples(st.just("delete_missing"), values, exps),   # maybe absent
    st.tuples(st.just("purge"), clocks),
    st.tuples(st.just("next_expiry"), clocks),
    st.tuples(st.just("probe"), values, clocks),
), max_size=70)


def _same_state(buf, model):
    """Identical observable state after every operation."""
    assert len(buf) == len(model.arrival)
    # Iteration order is storage order (unspecified): compare as multisets
    # of identities.
    assert sorted(map(id, buf)) == sorted(map(id, model.arrival))
    assert buf.partition_sizes() == [len(p) for p in model.slots]
    assert buf.counters.snapshot() == model.counters.snapshot()


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 10]), keyed=st.booleans(),
       ops=operations)
def test_lazy_slots_match_eagerly_sorted_model(n, keyed, ops):
    buf = PartitionedBuffer(SPAN, n, value_key if keyed else None, Counters())
    model = SortedSlots(n, keyed)
    serial = 0  # distinct ts: equal-(values, exp) copies stay tellable apart

    def fresh(v, exp):
        nonlocal serial
        serial += 1
        return Tuple((v,), serial, exp)

    for op, *args in ops:
        if op == "insert":
            t = fresh(*args)
            buf.insert(t)
            model.insert(t)
        elif op == "insert_many":
            batch = [fresh(v, exp) for v, exp in args[0]]
            buf.insert_many(iter(batch))
            model.insert_many(batch)
        elif op == "delete":
            if not model.arrival:
                continue
            stored = model.arrival[args[0] % len(model.arrival)]
            negative = Tuple(stored.values, 99.0, stored.exp, sign=-1)
            assert buf.delete(negative) is model.delete(negative) is True
        elif op == "delete_missing":
            negative = Tuple((args[0],), 99.0, args[1], sign=-1)
            assert buf.delete(negative) is model.delete(negative)
        elif op == "purge":
            got, want = buf.purge_expired(args[0]), model.purge_expired(args[0])
            assert list(map(id, got)) == list(map(id, want))
        elif op == "next_expiry":
            assert buf.next_expiry(args[0]) == model.next_expiry(args[0])
        elif keyed:  # probe
            got, want = buf.probe(*args), model.probe(*args)
            assert list(map(id, got)) == list(map(id, want))
        _same_state(buf, model)
    # Drain: everything left comes out, in the model's order.
    assert (list(map(id, buf.purge_expired(math.inf)))
            == list(map(id, model.purge_expired(math.inf))))
    _same_state(buf, model)


def t(v, ts, exp):
    return Tuple((v,), ts, exp)


class TestLazyOrderEdges:
    """The cases the marks exist for, spelled out."""

    def test_purge_returns_ties_in_insertion_order(self):
        buf = PartitionedBuffer(SPAN, 2)
        for ts, exp in enumerate([4, 3, 4, 3, 1]):
            buf.insert(t("x", ts, exp))
        assert [(x.exp, x.ts) for x in buf.purge_expired(4)] == [
            (1, 4), (3, 1), (3, 3), (4, 0), (4, 2)]

    def test_two_epochs_in_one_slot(self):
        # A lagging (lazily purged) slot: exp 4, 14 and 24 share slot 2.
        buf = PartitionedBuffer(SPAN, 5)
        for ts, exp in enumerate([14, 4, 24]):
            buf.insert(t("x", ts, exp))
        assert buf.next_expiry(0) == 4
        assert buf.next_expiry(4) == 14
        assert [x.exp for x in buf.purge_expired(15)] == [4, 14]
        assert buf.next_expiry(15) == 24 and len(buf) == 1

    @pytest.mark.parametrize("victim", ["first", "last", "only"])
    def test_delete_rederives_the_slot_marks(self, victim):
        counters = Counters()
        buf = PartitionedBuffer(SPAN, 1, counters=counters)
        stored = [t("a", 0, 5)] if victim == "only" else [
            t("a", 0, 3), t("b", 1, 5), t("c", 2, 7)]
        buf.insert_many(stored)
        gone = stored[-1 if victim == "last" else 0]
        assert buf.delete(gone)
        left = [x.exp for x in stored if x is not gone]
        # Min: a purge just below the new minimum finds nothing (and charges
        # nothing); max: an insert at the new maximum is in order (1 touch).
        counters.reset()
        assert buf.purge_expired(min(left, default=9) - 0.5) == []
        assert counters.touches == 0
        buf.insert(t("d", 3, max(left, default=1)))
        assert counters.touches == 1
        assert buf.next_expiry(0) == min(left + [max(left, default=1)])
