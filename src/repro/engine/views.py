"""Materialized result views.

Definition 2: "the output of non-monotonic queries (weakest, weak, or
strict) is a materialized view that reflects all the real (insertions) and
negative (deletions) tuples that have been produced on the output stream."
The view must also drop results whose ``exp`` timestamps have passed, unless
every expiration is signalled by a negative tuple (NT, where the view is a
hash table and timestamp purging is never needed).

The physical structure of the view is a strategy decision, exactly like the
operators' state buffers: an arrival-ordered list under DIRECT (full-scan
purges), a FIFO queue for WKS output, a partitioned buffer for WK output,
and a hash table keyed on ``(values, exp)`` under NT.  A root
whose own state already is Definition 2's view — a bag ⋈ bag window join,
group-by, δ — stores none (:class:`StateView`).
"""

from __future__ import annotations

import gc
# ``_count_elements`` is the C loop behind ``Counter.update``.
from collections import Counter as Multiset, _count_elements
from typing import Any

from ..buffers.base import StateBuffer
from ..core.metrics import Counters, NULL_COUNTERS
from ..core.tuples import NEGATIVE, Tuple


class ResultView:
    """Protocol for materialized query results."""

    def __init__(self, counters: Counters | None = None):
        self.counters = counters if counters is not None else NULL_COUNTERS

    #: Bulk install of a list of positive results, where the storage has one.
    _install_many = None

    def apply(self, t: Tuple, now: float) -> None:
        """Install a positive result or process a negative one."""
        raise NotImplementedError

    def deliver(self, outputs: list[Tuple], now: float,
                subscribers=()) -> None:
        """DELIVER one output list: per result, :meth:`apply` then every
        subscriber callback, in stream order — or, in the common case of
        nobody listening and no negative in the list, one bulk install."""
        install_many = self._install_many
        if install_many is not None and not subscribers:
            for t in outputs:
                if t.sign == NEGATIVE:
                    break
            else:
                return install_many(outputs)
        apply = self.apply
        for t in outputs:
            apply(t, now)
            for callback in subscribers:
                callback(t, now)

    def bind(self, subscribers: list) -> None:
        """The driver hands over its (identity-stable) subscriber list."""

    def purge(self, now: float) -> None:
        """Drop results whose expiration timestamps have passed."""
        raise NotImplementedError

    def snapshot(self, now: float) -> Multiset:
        """Multiset of live result values — the query answer Q(now).

        Used by tests and examples; does not charge state touches.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class BufferView(ResultView):
    """A view backed by any :class:`StateBuffer`.

    ``purges`` says whether timestamp-based purging is required: True for
    the direct-style views (list / FIFO / partitioned), False for hash views
    whose deletions all arrive as negative tuples.
    """

    def __init__(self, buffer: StateBuffer, purges: bool = True,
                 counters: Counters | None = None):
        super().__init__(counters)
        self._buffer = buffer
        self.purges = purges
        self._install_many = buffer.insert_many

    def apply(self, t: Tuple, now: float) -> None:
        if not t.is_negative:
            self._buffer.insert(t)
        elif not self.purges or t.exp > now:
            # A negative with exp <= now names a result the timestamp purge
            # owns: whether it is still stored depends on the purge schedule
            # (per event or per batch), so ``deletes`` must not.  Hash views
            # never purge: there such negatives *are* the expirations.
            self._buffer.delete(t)

    def purge(self, now: float) -> None:
        if self.purges:
            self._buffer.purge_expired(now)

    def snapshot(self, now: float) -> Multiset:
        return Multiset(t.values for t in self._buffer if t.exp > now)

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def buffer(self) -> StateBuffer:
        return self._buffer

    def __repr__(self) -> str:
        return f"BufferView({self._buffer!r}, purges={self.purges})"


class StateView(ResultView):
    """A view stored nowhere: the root operator's state is the view.

    Nothing is installed or purged, ``len`` is 0, and the operator is
    handed the driver's subscriber list as its ``readers`` — while that
    list is empty it builds no result.  Exactness arguments: DESIGN.md.
    """

    def __init__(self, op, counters: Counters | None = None):
        super().__init__(counters)
        self._op = op

    def bind(self, subscribers: list) -> None:
        self._op.readers = subscribers

    def apply(self, t: Tuple, now: float) -> None:
        pass  # DELIVER is the subscriber callbacks alone

    def purge(self, now: float) -> None:
        pass  # the operator expires its own state; snapshots filter

    def __len__(self) -> int:
        return 0  # stored results: none


class JoinStateView(StateView):
    """The view of a UPA plan rooted at a window join.

    A result's ``exp`` is the minimum of its constituents' (Section 2.2)
    and a WKS/WK edge carries no negative tuple (Section 3.1), so
    Definition 2's view at ``now`` is exactly the pairs of stored,
    same-key, live tuples of the join's two hash-indexed inputs.
    :meth:`snapshot` enumerates them.  Break-even read rate: DESIGN.md.
    """

    def __init__(self, join, counters: Counters | None = None):
        super().__init__(join, counters)
        left, right = join.buffers
        self._left = left._index
        self._right = right._index

    def snapshot(self, now: float) -> Multiset:
        right = self._right
        # Thousands of fresh value tuples trip a young collection every
        # 700 allocations and none is garbage: pause the collector until
        # they are counted (1.4 -> 1.1 ms on a 5.8 k-pair answer).  On a
        # 50-pair answer per-key temporaries cost +30 %, ``Counter()``'s
        # Python frames +7 %: one comprehension into the C counting loop.
        was = gc.isenabled()
        gc.disable()
        try:
            out = Multiset.__new__(Multiset)
            _count_elements(out, [
                a.values + b.values
                for key, bucket in self._left.items() if key in right
                for a in bucket if a.exp > now
                for b in right[key] if b.exp > now])
            return out
        finally:
            if was:
                gc.enable()


class GroupStateView(StateView):
    """The view of a group-by root: the operator's group table, Rule 4's
    array.  ``purge`` is where the loops let an unread one expire itself."""

    def purge(self, now: float) -> None:
        self._op.settle(now)

    def snapshot(self, now: float) -> Multiset:
        out = Multiset.__new__(Multiset)
        _count_elements(out, self._op.rows())
        return out


class DeltaStateView(StateView):
    """The view of a plan rooted at the δ operator: its output buffer holds
    exactly the live representatives, one per distinct value."""

    def snapshot(self, now: float) -> Multiset:
        return Multiset(t.values for t in self._op.output_buffer
                        if t.exp > now)

    @property
    def buffer(self) -> StateBuffer:
        """Where the answer is read from (owned by the operator)."""
        return self._op.output_buffer


class AppendView(ResultView):
    """Append-only view for monotonic output (results never expire)."""

    def __init__(self, counters: Counters | None = None):
        super().__init__(counters)
        self._results: list[Tuple] = []

    def apply(self, t: Tuple, now: float) -> None:
        if t.is_negative:
            raise AssertionError(
                "monotonic output produced a negative tuple; the plan was "
                "mis-annotated"
            )
        self._results.append(t)
        self.counters.touches += 1

    def purge(self, now: float) -> None:
        pass

    def snapshot(self, now: float) -> Multiset:
        return Multiset(t.values for t in self._results)

    def results(self) -> list[Tuple]:
        """The full append-only output stream."""
        return list(self._results)

    def __len__(self) -> int:
        return len(self._results)


class GroupView(ResultView):
    """Stored group results, for a member whose whole plan is a shared
    group-by: the producer's replacement-keyed stream, latest result per
    group.  A NEGATIVE-signed result marks group deletion (the group ran
    out of live input tuples).
    """

    def __init__(self, n_keys: int, counters: Counters | None = None):
        super().__init__(counters)
        self._store: dict[Any, Tuple] = {}
        self._n_keys = n_keys

    def apply(self, t: Tuple, now: float) -> None:
        self.deliver((t,), now)

    def deliver(self, outputs, now: float, subscribers=()) -> None:
        n_keys = self._n_keys
        store = self._store
        counters = self.counters
        for t in outputs:
            counters.touches += 1
            if t.sign == NEGATIVE:
                store.pop(t.values[:n_keys], None)
                counters.deletes += 1
            else:
                store[t.values[:n_keys]] = t
                counters.inserts += 1
            for callback in subscribers:
                callback(t, now)

    def purge(self, now: float) -> None:
        pass  # group results are replaced, never timestamp-purged (Rule 4)

    def snapshot(self, now: float) -> Multiset:
        return Multiset(t.values for t in self._store.values())

    def groups(self) -> dict[Any, Tuple]:
        """Copy of the current group → result mapping."""
        return dict(self._store)

    def __len__(self) -> int:
        return len(self._store)
