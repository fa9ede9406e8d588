"""FIFO state buffer for weakest non-monotonic (WKS) input.

When tuples expire in the order they were generated — the defining property
of WKS update patterns (Section 3.1) — the buffer can be a plain queue:
insertions append at the tail and expirations pop from the head, both in
O(1).  Section 5.3.2: "results expire in order of generation, so we can
implement the state buffer as a list, with insertions appended to the end of
the list and deletions occurring from the beginning."
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from ..core.tuples import Tuple, matches_deletion
from ..errors import ExecutionError
from .base import KeyFunction, StateBuffer
from ..core.metrics import Counters


class FifoBuffer(StateBuffer):
    """Queue ordered by expiration time; only valid for WKS input.

    The WKS guarantee is enforced: inserting a tuple whose ``exp`` precedes
    the current tail's raises :class:`ExecutionError`, because popping from
    the head would then expire tuples out of order and violate correctness.
    """

    def __init__(self, key_of: KeyFunction | None = None,
                 counters: Counters | None = None):
        super().__init__(key_of, counters)
        self._queue: deque[Tuple] = deque()

    def insert(self, t: Tuple) -> None:
        if self._queue and t.exp < self._queue[-1].exp:
            raise ExecutionError(
                f"non-FIFO insertion into FifoBuffer: exp {t.exp} < tail exp "
                f"{self._queue[-1].exp}; the input is not WKS"
            )
        self._queue.append(t)
        self.counters.inserts += 1
        self.counters.touches += 1
        if self._key_of is not None:
            self._index_add((t,))

    def insert_many(self, tuples) -> None:
        """Bulk append: one WKS-order validation pass, a single extend."""
        tuples = list(tuples)
        if not tuples:
            return
        queue = self._queue
        tail = queue[-1].exp if queue else float("-inf")
        for t in tuples:
            if t.exp < tail:
                raise ExecutionError(
                    f"non-FIFO insertion into FifoBuffer: exp {t.exp} < tail "
                    f"exp {tail}; the input is not WKS"
                )
            tail = t.exp
        queue.extend(tuples)
        self.counters.inserts += len(tuples)
        self.counters.touches += len(tuples)
        self._index_add(tuples)

    def next_expiry(self, now: float) -> float:
        """O(1) in steady state: the head expires first (WKS order)."""
        for t in self._queue:
            if t.exp > now:
                return t.exp
        return float("inf")

    def delete(self, t: Tuple) -> bool:
        # Rarely needed for WKS state; pay the scan when it happens.
        for i, stored in enumerate(self._queue):
            self.counters.touches += 1
            if matches_deletion(stored, t):
                del self._queue[i]
                self.counters.deletes += 1
                self._index_drop((stored,))
                return True
        return False

    def purge_expired(self, now: float) -> list[Tuple]:
        expired: list[Tuple] = []
        queue = self._queue
        # One touch for peeking at the head even when nothing expires.
        touches = 1
        while queue and queue[0].exp <= now:
            expired.append(queue.popleft())
            touches += 1
        self.counters.touches += touches
        if expired:
            self._index_drop(expired)
            self.counters.expirations += len(expired)
        return expired

    def oldest(self) -> Tuple | None:
        """The stored tuple that will expire first, if any."""
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._queue)

    def __repr__(self) -> str:
        return f"FifoBuffer(len={len(self._queue)})"
