"""Hash-on-key state buffer for the negative tuple approach and STR results.

Section 2.3.1: "The negative tuple approach can be implemented efficiently if
the operator state is sorted by key so that expired tuples can be looked up
quickly in response to negative tuples."  Section 5.4.1 makes the state
buffer "a hash table on the key attribute".

Deletions arrive as negative tuples carrying the key, so :meth:`delete` costs
one bucket scan (O(1) expected).  There is no cheap way to find tuples by
expiration time, so :meth:`purge_expired` is a full scan.  Under the negative
tuple approach *every* expiration is signalled explicitly, so NT never calls
it: its operators are not lazily maintained, and hash result views are built
with ``purges=False``.  The one remaining caller is UPA's hybrid scheme
(Section 5.4.3): above a negation, joins, intersections and standard
duplicate elimination still purge their hash state on the lazy grid, and a
relation join purges its window state on time to signal the expirations as
negatives.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from ..core.tuples import Tuple
from .base import KeyFunction, StateBuffer, values_key
from ..core.metrics import Counters


class HashBuffer(StateBuffer):
    """Hash table keyed by a key attribute (or the full value tuple)."""

    def __init__(self, key_of: KeyFunction | None = None,
                 counters: Counters | None = None):
        # A hash buffer is pointless without a key; default to full values.
        # The inherited key index is the table itself.
        super().__init__(key_of if key_of is not None else values_key, counters)
        self._size = 0

    def insert(self, t: Tuple) -> None:
        self._index.setdefault(self._key_of(t), []).append(t)
        self._size += 1
        self.counters.inserts += 1
        self.counters.touches += 1

    def insert_many(self, tuples) -> None:
        """Bulk insertion with dict and key-function lookups hoisted."""
        tuples = list(tuples)
        if not tuples:
            return
        setdefault = self._index.setdefault
        key_of = self._key_of
        for t in tuples:
            setdefault(key_of(t), []).append(t)
        self._size += len(tuples)
        self.counters.inserts += len(tuples)
        self.counters.touches += len(tuples)

    def delete(self, t: Tuple) -> bool:
        """Remove the first stored tuple matching ``t`` on ``(values,
        exp)`` (``matches_deletion``), charging one touch per examined
        tuple."""
        key = self._key_of(t)
        bucket = self._index.get(key)
        if not bucket:
            return False
        counters = self.counters
        values, exp = t.values, t.exp
        for i, stored in enumerate(bucket):
            if stored.values == values and stored.exp == exp:
                counters.touches += i + 1
                del bucket[i]
                if not bucket:
                    del self._index[key]
                self._size -= 1
                counters.deletes += 1
                return True
        counters.touches += len(bucket)
        return False

    def purge_expired(self, now: float) -> list[Tuple]:
        # Full scan: only the hybrid region asks (see the module docstring).
        expired: list[Tuple] = []
        empty_keys: list[Hashable] = []
        for key, bucket in self._index.items():
            survivors = []
            for t in bucket:
                self.counters.touches += 1
                if t.exp > now:
                    survivors.append(t)
                else:
                    expired.append(t)
            if survivors:
                self._index[key] = survivors
            else:
                empty_keys.append(key)
        for key in empty_keys:
            del self._index[key]
        self._size -= len(expired)
        self.counters.expirations += len(expired)
        return expired

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Tuple]:
        for bucket in self._index.values():
            yield from bucket

    def __repr__(self) -> str:
        return f"HashBuffer(len={self._size}, keys={len(self._index)})"
