"""Arrival-ordered list buffer — the pattern-unaware DIRECT baseline.

Section 2.3.3: "straightforward implementations of state buffers may require
a sequential scan during insertions or deletions.  For example, if the state
buffer is sorted by tuple arrival time, then insertions are simple, but
deletions require a sequential scan of the buffer."

This class is that straightforward implementation: insertion appends in O(1),
but because the buffer makes no assumption about the expiration order of its
contents, :meth:`purge_expired` must examine every stored tuple.  It is the
structure the DIRECT strategy uses for all state and result views, and its
scan cost is exactly what the update-pattern-aware structures avoid.
"""

from __future__ import annotations

from typing import Iterator

from ..core.tuples import Tuple, matches_deletion
from .base import KeyFunction, StateBuffer
from ..core.metrics import Counters


class ListBuffer(StateBuffer):
    """Unordered (arrival-ordered) list with full-scan expiration."""

    def __init__(self, key_of: KeyFunction | None = None,
                 counters: Counters | None = None):
        super().__init__(key_of, counters)
        self._items: list[Tuple] = []

    def insert(self, t: Tuple) -> None:
        self._items.append(t)
        self.counters.inserts += 1
        self.counters.touches += 1
        if self._key_of is not None:
            self._index_add((t,))

    def insert_many(self, tuples) -> None:
        """Bulk append: one extend, counters charged in bulk."""
        tuples = list(tuples)
        if not tuples:
            return
        self._items.extend(tuples)
        self.counters.inserts += len(tuples)
        self.counters.touches += len(tuples)
        self._index_add(tuples)

    def delete(self, t: Tuple) -> bool:
        for i, stored in enumerate(self._items):
            self.counters.touches += 1
            if matches_deletion(stored, t):
                del self._items[i]
                self.counters.deletes += 1
                self._index_drop((stored,))
                return True
        return False

    def purge_expired(self, now: float) -> list[Tuple]:
        # The defining inefficiency: every tuple is examined on every purge.
        survivors: list[Tuple] = []
        expired: list[Tuple] = []
        for t in self._items:
            self.counters.touches += 1
            if t.exp > now:
                survivors.append(t)
            else:
                expired.append(t)
        self._items = survivors
        self._index_drop(expired)
        self.counters.expirations += len(expired)
        return expired

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._items)

    def __repr__(self) -> str:
        return f"ListBuffer(len={len(self._items)})"
