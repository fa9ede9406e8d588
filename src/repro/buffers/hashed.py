"""Hash-on-key state buffer for the negative tuple approach and STR results.

Section 2.3.1: "The negative tuple approach can be implemented efficiently if
the operator state is sorted by key so that expired tuples can be looked up
quickly in response to negative tuples."  Section 5.4.1 makes the state
buffer "a hash table on the key attribute".

Deletions arrive as negative tuples carrying the key, so :meth:`delete` costs
one bucket scan (O(1) expected).  There is no cheap way to find tuples by
expiration time, so :meth:`purge_expired` is a full scan — acceptable because
under the negative tuple approach *every* expiration is signalled explicitly
and timestamp-driven purging is never needed.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from ..core.tuples import Tuple, matches_deletion
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
        key = self._key_of(t)
        bucket = self._index.get(key)
        if not bucket:
            return False
        for i, stored in enumerate(bucket):
            self.counters.touches += 1
            if matches_deletion(stored, t):
                del bucket[i]
                if not bucket:
                    del self._index[key]
                self._size -= 1
                self.counters.deletes += 1
                return True
        return False

    def delete_by_key(self, key: Hashable) -> Tuple | None:
        """Remove and return one (the oldest stored) tuple with ``key``."""
        bucket = self._index.get(key)
        if not bucket:
            return None
        self.counters.touches += 1
        t = bucket.pop(0)
        if not bucket:
            del self._index[key]
        self._size -= 1
        self.counters.deletes += 1
        return t

    def purge_expired(self, now: float) -> list[Tuple]:
        # Full scan: only used when a hash buffer is asked to expire by
        # timestamp, which the NT strategy never does in steady state.
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
