"""Stateless physical operators: selection, projection, merge-union, window.

Section 2.1: "Projection, selection, and union are unary operators that
process new tuples on-the-fly ... These operators are stateless and do not
have to be modified to work over sliding windows."  They treat negative
tuples exactly like positive ones — a negative passes the same predicate /
projection its positive twin passed, so the derived negative reaches and
deletes the matching downstream state.

:class:`WindowOp` is the physical leaf.  It stamps each arrival with its
expiration timestamp (``ts`` + window size, Section 2.2).  Under the
negative tuple approach it additionally materializes the window in a FIFO
buffer and emits a negative tuple for every expiration (Section 2.3.1);
under the direct approach it stores nothing.
"""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter
from typing import Callable

from ..buffers.fifo import FifoBuffer
from ..core.metrics import Counters
from ..core.tuples import NEGATIVE, Schema, Tuple
from ..streams.window import WindowSpec
from .base import PhysicalOperator

_INF = math.inf
#: Signs of a list, read in C: ``list(map(_sign, tuples)).count(NEGATIVE)``.
_sign = attrgetter("sign")


class SelectOp(PhysicalOperator):
    """Filter by a predicate over the value tuple."""

    def __init__(self, schema: Schema, predicate: Callable[[tuple], bool],
                 counters: Counters | None = None, label: str = "<pred>"):
        super().__init__(schema, counters)
        self._predicate = predicate
        self.label = label

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """Vectorized filter: one advance, bulk counting, hoisted predicate."""
        self._advance(now)
        counters = self.counters
        counters.tuples_processed += len(tuples)
        predicate = self._predicate
        out = [t for t in tuples if predicate(t.values)]
        negatives = list(map(_sign, tuples)).count(NEGATIVE)
        if negatives:
            counters.negatives_processed += negatives
        return out

    def kernel(self):
        return ("filter", self._predicate)


class ProjectOp(PhysicalOperator):
    """Keep only the attributes at the given positions (bag semantics)."""

    def __init__(self, schema: Schema, indices: tuple[int, ...],
                 counters: Counters | None = None):
        super().__init__(schema, counters)
        self._indices = indices
        self._take = itemgetter(*indices)

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """Vectorized projection: the columns taken by one C ``itemgetter``
        per tuple, each result built once."""
        self._advance(now)
        counters = self.counters
        counters.tuples_processed += len(tuples)
        negatives = list(map(_sign, tuples)).count(NEGATIVE)
        if negatives:
            counters.negatives_processed += negatives
        take = self._take
        if len(self._indices) == 1:  # itemgetter of one index: a scalar
            return [Tuple((take(t.values),), t.ts, t.exp, t.sign)
                    for t in tuples]
        return [Tuple(take(t.values), t.ts, t.exp, t.sign) for t in tuples]

    def kernel(self):
        return ("map_indices", self._indices)


class UnionOp(PhysicalOperator):
    """Non-blocking merge union: forward tuples from either input.

    Output arrives in timestamp order because the engine processes events in
    timestamp order (Section 2's in-order processing assumption).
    """

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """Vectorized pass-through: one advance, bulk counting."""
        self._advance(now)
        counters = self.counters
        counters.tuples_processed += len(tuples)
        negatives = list(map(_sign, tuples)).count(NEGATIVE)
        if negatives:
            counters.negatives_processed += negatives
        return list(tuples)

    def kernel(self):
        return ("pass", None)


class PortOp(PhysicalOperator):
    """Source leaf replaying a shared subplan's recorded output stream.

    A :class:`~repro.core.plan.SharedScan` compiles to a ``PortOp`` bound
    (:meth:`bind`) to the two logs its producer records per batch: the
    expire-phase outputs as ``(clock, tuples)`` pairs and one output list
    per arrival on the subtree's streams.  The consumer's own driver
    replays them at the two positions the subtree held — :meth:`expire` as
    an eager participant of the expiration pass, :meth:`pull` as the
    arrival leaf of every stream the subtree reads — each through a
    private cursor.  In independent execution no such operator exists — the
    subtree's root feeds its parent directly — so the port charges *no*
    counters and keeps no clock: per-query counter attribution stays equal
    to what the residual operators alone would cost.
    """

    def __init__(self, schema: Schema, counters: Counters | None = None):
        super().__init__(schema, counters)
        self._expired: list = []
        self._arrived: list = []
        self._e = self._a = 0
        #: The producer's kept view when this member's whole plan is the
        #: subtree (:class:`~repro.engine.views.PortView` reads it).
        self.view = None

    def bind(self, expired: list, arrived: list, view=None) -> None:
        """Read the producer's logs (the producer clears them in place
        per chunk and rewinds its ports) and, for a whole-plan member, the
        view it keeps."""
        self._expired = expired
        self._arrived = arrived
        self.view = view
        self.rewind()

    def rewind(self) -> None:
        """A new batch was recorded: both cursors restart."""
        self._e = self._a = 0

    def expire(self, now: float) -> list[Tuple]:
        """The producer's expire-phase output at clock ``now`` (a copy:
        every consumer replays the same record)."""
        log = self._expired
        i = self._e
        if i < len(log) and log[i][0] <= now:
            self._e = i + 1
            return list(log[i][1])
        return []

    def next_expiry(self, now: float) -> float:
        """Exact: the clock of the next recorded expire-phase output."""
        log = self._expired
        return log[self._e][0] if self._e < len(log) else _INF

    def pull(self) -> list[Tuple]:
        """The producer's output for the next arrival on its streams."""
        i = self._a
        self._a = i + 1
        return self._arrived[i]

    def __repr__(self) -> str:
        return f"PortOp(schema={list(self.schema.fields)})"


class WindowOp(PhysicalOperator):
    """Physical leaf for a base stream bounded by a sliding window.

    ``materialize=True`` selects negative-tuple behaviour: the window is
    stored and :meth:`expire` returns a negative tuple per expired input,
    which the executor pushes through the plan (Figure 3).  With
    ``materialize=False`` (direct approach) the window stores nothing and
    downstream operators find expirations via ``exp`` timestamps (Figure 4).

    Count-based windows (extension) expire in the per-stream sequence
    domain; the engine passes sequence numbers as ``now`` for such leaves.
    """

    def __init__(self, schema: Schema, window: WindowSpec | None,
                 materialize: bool = False,
                 counters: Counters | None = None,
                 name: str = "stream"):
        super().__init__(schema, counters)
        self.window = window
        self.name = name
        self._store: FifoBuffer | None = (
            FifoBuffer(counters=counters) if (materialize and window) else None
        )

    def stamp(self, values: tuple, ts: float, clock: float) -> Tuple:
        """Build the stamped tuple for an arrival.

        ``ts`` is the arrival timestamp; ``clock`` is the value of the time
        domain used for expiry (equal to ``ts`` for time-based windows, the
        per-stream sequence number for count-based ones).
        """
        if self.window is None:
            return Tuple(values, ts)
        return Tuple(values, ts, self.window.expiry_of(clock))

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """Bulk stamp-and-store: positives are inserted via the buffer's
        bulk fast path."""
        self._advance(now)
        counters = self.counters
        counters.tuples_processed += len(tuples)
        negatives = list(map(_sign, tuples)).count(NEGATIVE)
        if negatives:
            counters.negatives_processed += negatives
        if self._store is not None:
            if negatives:
                self._store.insert_many([t for t in tuples if t.sign > 0])
            else:
                self._store.insert_many(tuples)
        return list(tuples)

    def expire(self, now: float) -> list[Tuple]:
        self._advance(now)
        if self._store is None:
            return []
        # The store holds positives only: each negative is built once here
        # and routed as is.
        return [Tuple(t.values, t.ts, t.exp, NEGATIVE)
                for t in self._store.purge_expired(now)]

    def next_expiry(self, now: float) -> float:
        """O(1): the materialized window is a FIFO, so the head expires first."""
        if self._store is None:
            return super().next_expiry(now)
        return self._store.next_expiry(now)

    def state_size(self) -> int:
        return len(self._store) if self._store is not None else 0

    def state_buffers(self):
        return [("window", self._store)]

    def __repr__(self) -> str:
        mode = "NT" if self._store is not None else "direct"
        return f"WindowOp({self.name}, {self.window}, {mode})"
