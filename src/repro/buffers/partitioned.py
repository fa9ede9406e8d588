"""Partitioned state buffer for weak non-monotonic (WK) input.

Section 5.3.2 / Figure 7: the buffer is a circular array of partitions
bucketed by *expiration time*.  A tuple with expiration timestamp ``exp``
lands in partition ``floor(exp / width) mod n`` where ``width = span / n``
and ``span`` is the largest possible distance between a tuple's insertion
and expiration times (one window size for base windows; the maximum input
window size for composite results, because a result's ``exp`` is the minimum
of its constituents').

A WK edge never carries a negative tuple, so all such a store ever needs is
order *across* partitions at purge time.  The paper says as much:
"individual partitions can then be sorted by expiration time for operators
that must expire results eagerly" — can be, when something needs the
order, not on every insert.  Insertion therefore always appends, and a slot
is (stably) sorted only when its order is observed: the one *straddling*
slot of a purge, a fully expired slot whose contents ``purge_expired``
returns, the slot a premature deletion (STR input) bisects, and
``next_expiry`` on a slot that straddles ``now``.  Per-slot min/max ``exp``
marks classify slots without looking inside them, and a buffer-wide
low-water mark makes a purge with nothing due O(1).

What does not change is the *charge*.  ``touches`` is the paper's
deterministic cost model, not a timer: an insert that arrives in
expiration order (at or above its slot's running maximum) costs 1, one that
does not costs the ``floor(log2 n) + 1`` probes of the binary search an
eagerly sorted slot would pay; the sort and the marks are engine
bookkeeping like ``next_expiry`` and are not charged.  What callers can
observe is unchanged too: ``purge_expired`` returns slot order,
``exp``-ascending within a slot, ties in insertion order.  Iteration is
*storage* order — unspecified; its one consumer outside tests builds a
multiset (``BufferView.snapshot``).

The paper notes the structure "is similar to the calendar queue if we think
of expirations as events scheduled according to their expiration times".
More partitions shorten partition scans but cost more per-purge overhead —
the trade-off measured by experiment E7.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterator

from ..core.tuples import Tuple, matches_deletion
from ..errors import ExecutionError
from .base import KeyFunction, StateBuffer
from ..core.metrics import Counters

_exp_of = attrgetter("exp")
_INF = math.inf


class PartitionedBuffer(StateBuffer):
    """Circular array of lazily exp-sorted partitions (Figure 7)."""

    def __init__(self, span: float, n_partitions: int = 10,
                 key_of: KeyFunction | None = None,
                 counters: Counters | None = None):
        if span <= 0:
            raise ExecutionError(f"partition span must be positive, got {span}")
        if n_partitions < 1:
            raise ExecutionError(
                f"need at least one partition, got {n_partitions}"
            )
        super().__init__(key_of, counters)
        self.span = span
        self.n_partitions = n_partitions
        self._width = span / n_partitions
        self._partitions: list[list[Tuple]] = [[] for _ in range(n_partitions)]
        # Per-slot marks: smallest and largest stored exp (inf / -inf when
        # empty — a lagging slot can hold two epochs, so these, not the
        # list ends, classify it) and whether appends left it unsorted.
        self._lo = [_INF] * n_partitions
        self._hi = [-_INF] * n_partitions
        self._dirty = [False] * n_partitions
        #: Lower bound on every stored exp; a purge below it has nothing due.
        self._low = _INF
        self._size = 0

    def _slot(self, exp: float) -> int:
        return int(exp // self._width) % self.n_partitions

    def _ordered(self, slot: int) -> list[Tuple]:
        """The slot's list, exp-sorted (stable: ties keep insertion order)."""
        part = self._partitions[slot]
        if self._dirty[slot]:
            part.sort(key=_exp_of)
            self._dirty[slot] = False
        return part

    def insert(self, t: Tuple) -> None:
        self.insert_many((t,))

    def insert_many(self, tuples) -> None:
        """Append each tuple to its slot; see the module docstring for the
        (unchanged) touch charges."""
        tuples = list(tuples)
        partitions, lo, hi, dirty = (self._partitions, self._lo, self._hi,
                                     self._dirty)
        width, n = self._width, self.n_partitions
        touches = 0
        for t in tuples:
            exp = t.exp
            if exp == _INF:
                raise ExecutionError(
                    "PartitionedBuffer requires finite expiration timestamps"
                )
            slot = int(exp // width) % n
            part = partitions[slot]
            part.append(t)
            if exp >= hi[slot]:
                hi[slot] = exp
                touches += 1
            else:
                dirty[slot] = True
                touches += len(part).bit_length()  # floor(log2 n) + 1
            if exp < lo[slot]:
                lo[slot] = exp
                if exp < self._low:
                    self._low = exp
        self._size += len(tuples)
        self.counters.inserts += len(tuples)
        self.counters.touches += touches
        self._index_add(tuples)

    def next_expiry(self, now: float) -> float:
        """O(partitions): the earliest live ``exp`` across slots, read off
        the marks; only a slot straddling ``now`` is looked into."""
        boundary = _INF
        for slot, (head, top) in enumerate(zip(self._lo, self._hi)):
            if top <= now:
                continue  # empty or wholly expired
            if head <= now:
                part = self._ordered(slot)
                head = part[bisect_right(part, now, key=_exp_of)].exp
            if head < boundary:
                boundary = head
        return boundary

    def delete(self, t: Tuple) -> bool:
        """Premature deletion: bisect inside the single partition that the
        deleted tuple's ``exp`` selects."""
        slot = self._slot(t.exp)
        part = self._ordered(slot)
        i = bisect_left(part, t.exp, key=_exp_of)
        self.counters.touches += (len(part) + 1).bit_length()
        while i < len(part) and part[i].exp == t.exp:
            self.counters.touches += 1
            if matches_deletion(part[i], t):
                stored = part.pop(i)
                self._lo[slot], self._hi[slot] = (
                    (part[0].exp, part[-1].exp) if part else (_INF, -_INF))
                self._size -= 1
                self.counters.deletes += 1
                self._index_drop((stored,))
                return True
            i += 1
        return False

    def purge_expired(self, now: float) -> list[Tuple]:
        if now < self._low:
            return []
        expired: list[Tuple] = []
        lo, hi = self._lo, self._hi
        touches = 0
        for slot, head in enumerate(lo):
            # Mark checks examine no tuples and are not charged as
            # touches; only tuple examinations and moves count.
            if head > now:
                continue  # empty or untouched
            part = self._ordered(slot)
            if hi[slot] <= now:
                # Whole partition's time range has passed: drop wholesale.
                expired.extend(part)
                touches += len(part)
                part.clear()
                lo[slot], hi[slot] = _INF, -_INF
            else:
                # Straddling partition: pop the expired prefix only.
                cut = bisect_right(part, now, key=_exp_of)
                expired.extend(part[:cut])
                touches += cut + 1
                del part[:cut]
                lo[slot] = part[0].exp
        self._low = min(lo)
        self._size -= len(expired)
        self.counters.touches += touches
        self.counters.expirations += len(expired)
        self._index_drop(expired)
        return expired

    def partition_sizes(self) -> list[int]:
        """Current number of tuples in each partition (for inspection)."""
        return [len(p) for p in self._partitions]

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Tuple]:
        """Storage order (slot by slot, append order within a dirty slot)."""
        for part in self._partitions:
            yield from part

    def __repr__(self) -> str:
        return (
            f"PartitionedBuffer(len={self._size}, span={self.span}, "
            f"n={self.n_partitions})"
        )
