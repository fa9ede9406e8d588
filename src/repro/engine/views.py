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
group-by, δ — stores none (:class:`StateView`), and neither does a group
member whose whole plan is a shared producer (:class:`PortView`).

``snapshot`` returns a ``Counter`` of live result values, a snapshot that
later events do not change.  On a join-rooted view it is a
:class:`JoinAnswer`, a ``Counter`` kept factorized as per-key pairs of
input buckets until it is first used.
"""

from __future__ import annotations

# ``_count_elements`` is the C loop behind ``Counter.update``.
from collections import Counter as Multiset, _count_elements
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
        """Multiset of live result values — the query answer Q(now), a
        snapshot later events do not change.  Does not charge state
        touches.
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


class JoinAnswer(Multiset):
    """Q(now) of a join-rooted view, a ``Counter`` kept factorized as
    ⋃ₖ Lₖ × Rₖ until it is first used.

    Taking one copies, per join key stored on both sides, the two index
    buckets: O(stored tuples) in C-level slices, nothing per result pair.
    The copies make it a snapshot: arrivals and purges after ``now`` do not
    reach it.  Any use of it as a ``Counter`` — a read, a comparison, an
    operator, a write, pickling — first counts the pairs live at ``now``
    into the answer itself, which from then on is a plain ``Counter``.
    """

    def __init__(self, now: float, blocks: list[tuple[list, list]]):
        self._now = now
        self._blocks = blocks

    def _count(self) -> None:
        now, blocks = self._now, self._blocks
        # A plain ``Counter`` from here on: the counting loop below stores
        # through dict's own methods, and every later use finds Counter's.
        self.__class__ = Multiset
        del self._now, self._blocks
        # One comprehension into the C counting loop: per-key temporaries
        # cost +30 % on a 50-pair answer.  The collector is not paused: the
        # young collection it would put off runs at the reader's next
        # allocation over the same live tuples, and costs no less there.
        _count_elements(self, [
            a.values + b.values
            for left, right in blocks
            for a in left if a.exp > now
            for b in right if b.exp > now])


def _counted_first(name: str):
    def method(self, *args, **kwargs):
        self._count()
        return getattr(self, name)(*args, **kwargs)
    method.__name__ = name
    return method


def _counted_then_declined(self, other):
    # A reflected operator: count, then let the left operand's own
    # operator run against the plain ``Counter`` this has become.
    self._count()
    return NotImplemented


# Every method through which ``dict`` or ``Counter`` reads or writes the
# contents (``dict(answer)`` and ``Counter(answer)`` go through ``keys``).
for _name in ("__getitem__", "__setitem__", "__delitem__", "__contains__",
              "__iter__", "__reversed__", "__len__", "__repr__",
              "__reduce__", "__eq__", "__ne__", "__lt__", "__le__",
              "__gt__", "__ge__", "__add__", "__sub__", "__or__", "__and__",
              "__pos__", "__neg__", "__iadd__", "__isub__", "__ior__",
              "__iand__", "get", "keys", "values", "items", "copy",
              "setdefault", "pop", "popitem", "clear", "update", "subtract",
              "total", "most_common", "elements"):
    setattr(JoinAnswer, _name, _counted_first(_name))
for _name in ("__radd__", "__rsub__", "__ror__", "__rand__"):
    setattr(JoinAnswer, _name, _counted_then_declined)
del _name


class JoinStateView(StateView):
    """The view of a UPA plan rooted at a window join.

    A result's ``exp`` is the minimum of its constituents' (Section 2.2)
    and a WKS/WK edge carries no negative tuple (Section 3.1), so
    Definition 2's view at ``now`` is exactly the pairs of stored,
    same-key, live tuples of the join's two hash-indexed inputs.
    :meth:`snapshot` freezes the buckets of every key on both sides into
    a :class:`JoinAnswer`, which counts those pairs when first used.
    Break-even read rate: DESIGN.md.
    """

    def __init__(self, join, counters: Counters | None = None):
        super().__init__(join, counters)
        left, right = join.buffers
        self._left = left._index
        self._right = right._index

    def snapshot(self, now: float) -> Multiset:
        right = self._right
        return JoinAnswer(now, [(bucket[:], right[key][:])
                                for key, bucket in self._left.items()
                                if key in right])


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


class PortView(ResultView):
    """The view of a member whose whole plan is a shared subtree: it
    stores nothing and answers from the one view its producer keeps
    (:mod:`repro.engine.sharing`); the replayed stream reaches the
    member's subscribers; read inside one, it is the answer after the
    event (per tuple) or chunk (batched) being delivered."""

    def __init__(self, port):
        super().__init__()
        self._port = port

    def deliver(self, outputs, now: float, subscribers=()) -> None:
        for t in outputs:
            for callback in subscribers:
                callback(t, now)

    def apply(self, t: Tuple, now: float) -> None:
        pass  # DELIVER is the subscriber callbacks alone

    def purge(self, now: float) -> None:
        pass  # the producer purges the view it keeps

    def snapshot(self, now: float) -> Multiset:
        return self._port.view.snapshot(now)

    def __len__(self) -> int:
        return 0  # stored results: none


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
