"""Abstract interface shared by all state-buffer implementations.

A *state buffer* stores the tuples an operator (or a materialized result
view) must remember: window contents, join state, duplicate-elimination
output, final query results, and so on.  Section 5.3.2 of the paper argues
that the right physical structure depends on the update pattern of the data
flowing into the buffer; the concrete subclasses in this package implement
the structures the paper discusses:

* :class:`~repro.buffers.fifo.FifoBuffer` — WKS input (expiry = generation
  order): a queue with O(1) pop-front expiration.
* :class:`~repro.buffers.listbuffer.ListBuffer` — the pattern-unaware
  arrival-ordered list used by the DIRECT baseline: expiration requires a
  sequential scan.
* :class:`~repro.buffers.partitioned.PartitionedBuffer` — WK input: a
  circular array of partitions bucketed by expiration time (Figure 7);
  expiration drops whole partitions.
* :class:`~repro.buffers.hashed.HashBuffer` — NT / STR input: a hash table
  on a key attribute so negative tuples delete in O(1) expected time.

All buffers optionally maintain a key index (``key_of``) used by
:meth:`probe`; see DESIGN.md for why probing is hash-indexed in every
strategy.  Buffers charge their work to a shared :class:`Counters` object so
experiments can report deterministic *state touches*.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Hashable, Iterable, Iterator

from ..core.metrics import Counters, NULL_COUNTERS
from ..core.tuples import Tuple

KeyFunction = Callable[[Tuple], Hashable]


def values_key(t: Tuple) -> Hashable:
    """Default key: the full value tuple (identity up to timestamps)."""
    return t.values


class StateBuffer(abc.ABC):
    """Common protocol for operator state and materialized views."""

    def __init__(self, key_of: KeyFunction | None = None,
                 counters: Counters | None = None):
        self._key_of = key_of
        self.counters = counters if counters is not None else NULL_COUNTERS
        #: key -> stored tuples in insertion order; stays empty without a
        #: ``key_of`` (HashBuffer's table *is* this index).
        self._index: dict[Hashable, list[Tuple]] = {}

    # -- mutation -----------------------------------------------------------

    @abc.abstractmethod
    def insert(self, t: Tuple) -> None:
        """Store a live tuple."""

    def insert_many(self, tuples: Iterable[Tuple]) -> None:
        """Bulk insertion fast path used by the micro-batch executor.

        Semantically identical to inserting each tuple in order, including
        the counter charges; subclasses override to hoist per-call overhead
        (FIFO appends a whole slice; the hash table resolves each bucket
        once per key run).
        """
        insert = self.insert
        for t in tuples:
            insert(t)

    def next_expiry(self, now: float) -> float:
        """The smallest ``exp`` strictly greater than ``now`` among stored
        tuples (``math.inf`` when none) — the buffer's next expiration
        boundary.

        Used by the batched executor for scheduling; not charged as touches
        (it is engine overhead, not strategy state maintenance).  The
        default scans; order-aware buffers override with O(1)/O(partitions)
        implementations.
        """
        boundary = math.inf
        for t in self:
            if now < t.exp < boundary:
                boundary = t.exp
        return boundary

    @abc.abstractmethod
    def delete(self, t: Tuple) -> bool:
        """Remove one stored tuple equal to ``t`` (values, ts, exp).

        Used for premature expirations signalled by negative tuples.
        Returns True if a matching tuple was found and removed.
        """

    @abc.abstractmethod
    def purge_expired(self, now: float) -> list[Tuple]:
        """Remove and return every stored tuple with ``exp <= now``."""

    # -- inspection ----------------------------------------------------------

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored tuples, including expired-but-unpurged ones."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[Tuple]:
        """Iterate over all stored tuples (no liveness filtering)."""

    def live(self, now: float) -> Iterator[Tuple]:
        """Iterate over stored tuples that have not expired at ``now``.

        Charges one touch per examined tuple: callers that scan the whole
        buffer pay for it, exactly like the paper's sequential scans.

        Hot path: the counters object is resolved once instead of per
        element (``self.counters`` is two attribute lookups per iteration
        otherwise); charges remain per-examined-tuple and lazy, so a caller
        that stops consuming the iterator early is charged exactly for what
        it examined — identical to the unhoisted loop.
        """
        counters = self.counters
        for t in self:
            counters.touches += 1
            if t.exp > now:
                yield t

    def probe(self, key: Hashable, now: float) -> list[Tuple]:
        """Live tuples whose key equals ``key`` (requires ``key_of``).

        Expired-but-unpurged tuples are skipped, implementing the paper's
        rule that lazily maintained state must not produce new results from
        expired tuples (Section 2.1).

        Hot path: this runs once per probing arrival (the inner loop of
        every join), so the counters object and the bucket are resolved
        once, the liveness filter runs as a list comprehension, and the
        touch charge — one per examined tuple, exactly as before — is
        applied in a single add of the bucket length.
        """
        if self._key_of is None:
            raise ValueError("probe() requires a key function")
        counters = self.counters
        counters.probes += 1
        bucket = self._bucket(key)
        out = [t for t in bucket if t.exp > now]
        counters.touches += len(bucket)
        return out

    def probe_all(self, key: Hashable) -> list[Tuple]:
        """All *stored* tuples with the given key, including expired ones.

        Used by negative-tuple cascades: a stored partner represents a
        result that was generated and not yet retracted, even if the
        partner's own expiration falls on the current instant — the
        liveness filter of :meth:`probe` would skip exactly the partner
        whose result must be retracted when two constituents expire
        simultaneously.  Deleting results that were already purged by
        timestamp downstream is a harmless no-op, so over-approximating
        here is always safe.
        """
        if self._key_of is None:
            raise ValueError("probe_all() requires a key function")
        counters = self.counters
        counters.probes += 1
        bucket = list(self._bucket(key))
        counters.touches += len(bucket)
        return bucket

    def _bucket(self, key: Hashable) -> Iterable[Tuple]:
        """All stored tuples with the given key (may include expired ones)."""
        return self._index.get(key, ())

    # -- the key index, for subclasses ---------------------------------------

    def _index_add(self, tuples: Iterable[Tuple]) -> None:
        """Index freshly stored tuples (no-op without a key function)."""
        key_of = self._key_of
        if key_of is not None:
            setdefault = self._index.setdefault
            for t in tuples:
                setdefault(key_of(t), []).append(t)

    def _index_drop(self, tuples: Iterable[Tuple]) -> None:
        """Unindex removed tuples (no-op without a key function)."""
        key_of = self._key_of
        if key_of is None:
            return
        index = self._index
        for t in tuples:
            key = key_of(t)
            bucket = index.get(key)
            if bucket:
                try:
                    bucket.remove(t)
                except ValueError:
                    continue
                if not bucket:
                    del index[key]

    @property
    def has_index(self) -> bool:
        return self._key_of is not None
