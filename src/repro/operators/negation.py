"""Negation over two windows (Section 2.1, Equation 1).

For each distinct value v of the negation attribute, the answer contains

    v3 = max(v1 - v2, 0)

tuples *from the left input* (W1), where v1 and v2 count live tuples with
value v in W1 and W2.  Negation is the canonical strict non-monotonic
operator: an arrival on W2 can force a previously reported answer tuple out
of the result *before* its ``exp`` timestamp, which must be signalled with a
negative tuple.

Answer-set maintenance.  We keep, per value, the live W1 tuples ordered by
expiration time and maintain the invariant that the answer is (as close as
possible to) the *oldest prefix* of that list.  With WKS inputs this
guarantees the paper's claim (Section 3.2) that only W2 arrivals produce
negative tuples: the W1 tuple that expires next is always an answer member
whenever the answer is non-empty, so window movement alone never needs a
negative.  (The paper's prose says the *youngest* W1 tuple is appended on a
W2 expiry; that choice would break the claim — see DESIGN.md — so we promote
the oldest suppressed tuple instead.  Either choice satisfies Equation 1.)

Event handling (``emit_all`` selects hybrid/NT behaviour where *every*
answer expiration is signalled with a negative, for hash-keyed downstream
state; otherwise only premature expirations produce negatives and natural
ones are left to ``exp``-based purging):

* W1 arrival: v1 += 1; if the answer must grow, admit the oldest suppressed
  tuple (the new tuple itself when nothing is suppressed) and emit it.
* W2 arrival: v2 += 1; if the answer must shrink, evict the youngest member
  and emit its negative (a premature expiration).
* W1 expiry / negative: remove the tuple; a departing member leaves
  naturally (negative only under ``emit_all`` or when the removal itself was
  premature); then rebalance.
* W2 expiry / negative: v2 -= 1; if the answer must grow, admit the oldest
  suppressed tuple and emit it.

Structure by update pattern (Section 5.3).  :class:`NegationOp` is written
for the worst case — WK or STR inputs, negative tuples, NT and the hybrid
region: two global expiration heaps, an identity set of tuples deleted by
negatives, insertion-sorted per-value lists and linear victim searches.
When both inputs are WKS the compiler picks :class:`NegationFifoOp`
instead: no negative ever arrives and each side expires in arrival order,
so each side's expirations are a FIFO queue (the two heads merged in
``(exp, arrival)`` order reproduce the heaps' pops exactly), the victim of
a W1 expiry is its value's oldest tuple, and W2 needs only a per-value
count.  Every event is O(1) and the outputs, answer set and counter charges
are those of :class:`NegationOp` on the same input.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import insort
from collections import deque
from typing import Any

from ..core.metrics import Counters
from ..core.tuples import NEGATIVE, Schema, Tuple
from ..errors import ExecutionError
from .base import PhysicalOperator

_INF = math.inf


def _log_cost(n: int) -> int:
    """Touch charge for a binary-searched insertion into a sorted list."""
    return max(1, n.bit_length())


class NegationOp(PhysicalOperator):
    """Strict non-monotonic bag negation on one attribute per side."""

    eager = True

    def __init__(self, schema: Schema, left_attr: int, right_attr: int,
                 emit_all: bool = False, self_expire: bool = True,
                 counters: Counters | None = None):
        super().__init__(schema, counters)
        self._attrs = (left_attr, right_attr)
        self._emit_all = emit_all
        self._self_expire = self_expire
        # Left state: per-value exp-ordered lists of live W1 tuples.
        self._live1: dict[Any, list[Tuple]] = {}
        # Right state: per-value exp-ordered lists of live W2 tuples.
        self._live2: dict[Any, list[Tuple]] = {}
        # Answer membership, by instance identity (members are stored
        # instances from _live1), plus per-value member counts so routine
        # events rebalance in O(1) — mirroring the paper's counter-based
        # negation state (v1, v2 per value).
        self._members: set[int] = set()
        self._k: dict[Any, int] = {}
        # Expiry detection for self-managed (direct) operation.
        self._heap1: list[tuple[float, int, Tuple]] = []
        self._heap2: list[tuple[float, int, Tuple]] = []
        self._removed: set[int] = set()  # instances deleted by negatives
        self._seq = itertools.count()

    # -- public event entry points --------------------------------------------

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        self._advance(now)
        counters = self.counters
        attr = self._attrs[input_index]
        if input_index == 0:
            arrive, remove = self._arrive_left, self._remove_left
        else:
            arrive, remove = self._arrive_right, self._remove_right
        out: list[Tuple] = []
        for t in tuples:
            counters.tuples_processed += 1
            value = t.values[attr]
            if t.sign < 0:
                counters.negatives_processed += 1
                out.extend(remove(value, t, now))
            else:
                out.extend(arrive(value, t, now))
        return out

    def expire(self, now: float) -> list[Tuple]:
        """Self-managed expiry, in global expiration order across both sides."""
        self._advance(now)
        if not self._self_expire:
            return []
        out: list[Tuple] = []
        while True:
            h1 = self._heap1[0] if self._heap1 else None
            h2 = self._heap2[0] if self._heap2 else None
            pick1 = h1 is not None and h1[0] <= now and (h2 is None or h1 <= h2)
            pick2 = not pick1 and h2 is not None and h2[0] <= now
            if pick1:
                _exp, _seq, t = heapq.heappop(self._heap1)
                if id(t) in self._removed:
                    self._removed.discard(id(t))
                    continue
                value = t.values[self._attrs[0]]
                out.extend(self._remove_left(value, t, now, natural=True))
            elif pick2:
                _exp, _seq, t = heapq.heappop(self._heap2)
                if id(t) in self._removed:
                    self._removed.discard(id(t))
                    continue
                value = t.values[self._attrs[1]]
                out.extend(self._remove_right(value, t, now, natural=True))
            else:
                break
        return out

    def next_expiry(self, now: float) -> float:
        """Earliest pending expiry on either side (self-managed mode only).

        Heap heads may be stale entries for tuples already deleted by
        negatives; their ``exp`` values are still sound *lower* bounds, so
        the batched executor at worst schedules a no-op pass that pops and
        discards them.
        """
        if not self._self_expire:
            return super().next_expiry(now)
        boundary = super().next_expiry(now)
        if self._heap1 and self._heap1[0][0] < boundary:
            boundary = self._heap1[0][0]
        if self._heap2 and self._heap2[0][0] < boundary:
            boundary = self._heap2[0][0]
        return boundary

    # -- left (W1) -------------------------------------------------------------

    def _arrive_left(self, value: Any, t: Tuple, now: float) -> list[Tuple]:
        lst = self._live1.setdefault(value, [])
        if lst and t.exp < lst[-1].exp:
            insort(lst, t, key=lambda x: x.exp)
            self.counters.touches += _log_cost(len(lst))
        else:
            lst.append(t)
            self.counters.touches += 1
        if self._self_expire:
            heapq.heappush(self._heap1, (t.exp, next(self._seq), t))
        return self._rebalance(value, now)

    def _remove_left(self, value: Any, t: Tuple, now: float,
                     natural: bool = False) -> list[Tuple]:
        lst = self._live1.get(value)
        if not lst:
            return []
        victim = self._find(lst, t)
        if victim is None:
            return []
        lst.remove(victim)
        self.counters.touches += 1
        if not lst:
            del self._live1[value]
        if not natural:
            self._removed.add(id(victim))
        out: list[Tuple] = []
        if id(victim) in self._members:
            self._members.discard(id(victim))
            remaining = self._k.get(value, 1) - 1
            if remaining:
                self._k[value] = remaining
            else:
                self._k.pop(value, None)
            premature = victim.exp > now
            if self._emit_all or premature:
                out.append(Tuple(victim.values, now, victim.exp, sign=-1))
        out.extend(self._rebalance(value, now))
        return out

    # -- right (W2) --------------------------------------------------------------

    def _arrive_right(self, value: Any, t: Tuple, now: float) -> list[Tuple]:
        lst = self._live2.setdefault(value, [])
        if lst and t.exp < lst[-1].exp:
            insort(lst, t, key=lambda x: x.exp)
            self.counters.touches += _log_cost(len(lst))
        else:
            lst.append(t)
            self.counters.touches += 1
        if self._self_expire:
            heapq.heappush(self._heap2, (t.exp, next(self._seq), t))
        return self._rebalance(value, now)

    def _remove_right(self, value: Any, t: Tuple, now: float,
                      natural: bool = False) -> list[Tuple]:
        lst = self._live2.get(value)
        if not lst:
            return []
        victim = self._find(lst, t)
        if victim is None:
            return []
        lst.remove(victim)
        self.counters.touches += 1
        if not lst:
            del self._live2[value]
        if not natural:
            self._removed.add(id(victim))
        return self._rebalance(value, now)

    # -- answer maintenance -------------------------------------------------------

    def _rebalance(self, value: Any, now: float) -> list[Tuple]:
        """Grow or shrink the answer set for ``value`` to its target size.

        The common case (nothing to do) is O(1) thanks to the per-value
        member counter; admissions and evictions scan the per-value list to
        locate the boundary tuple and are charged accordingly.
        """
        lst = self._live1.get(value, [])
        n2 = len(self._live2.get(value, ()))
        target = max(len(lst) - n2, 0)
        current = self._k.get(value, 0)
        out: list[Tuple] = []
        while current < target:
            # Admit the oldest suppressed tuple.  When the members form an
            # exact prefix (always true for WKS input) it sits at lst[k];
            # out-of-order insertions (WK input) fall back to a scan, and
            # any suppressed tuple is a valid choice under Equation 1.
            promoted = None
            if current < len(lst) and id(lst[current]) not in self._members:
                promoted = lst[current]
                self.counters.touches += 1
            else:
                for x in lst:
                    self.counters.touches += 1
                    if id(x) not in self._members:
                        promoted = x
                        break
            assert promoted is not None
            self._members.add(id(promoted))
            out.append(Tuple(promoted.values, now, promoted.exp))
            self.counters.results_produced += 1
            current += 1
        while current > target:
            # Evict the youngest member: premature expiration.  Same fast
            # path: an exact prefix puts it at lst[k-1].
            evicted = None
            if current <= len(lst) and id(lst[current - 1]) in self._members:
                evicted = lst[current - 1]
                self.counters.touches += 1
            else:
                for x in reversed(lst):
                    self.counters.touches += 1
                    if id(x) in self._members:
                        evicted = x
                        break
            assert evicted is not None
            self._members.discard(id(evicted))
            out.append(Tuple(evicted.values, now, evicted.exp, sign=-1))
            current -= 1
        if current != self._k.get(value, 0):
            if current:
                self._k[value] = current
            else:
                self._k.pop(value, None)
        return out

    @staticmethod
    def _find(lst: list[Tuple], t: Tuple) -> Tuple | None:
        """Locate the stored instance matching a removal request.

        Natural expirations pass the stored instance itself; negatives match
        by (values, exp).  Prefer an exact-identity hit, else the first
        (values, exp) match.
        """
        for x in lst:
            if x is t:
                return x
        for x in lst:
            if x.values == t.values and x.exp == t.exp:
                return x
        return None

    # -- inspection ------------------------------------------------------------------

    def state_size(self) -> int:
        n1 = sum(len(v) for v in self._live1.values())
        n2 = sum(len(v) for v in self._live2.values())
        return n1 + n2

    def answer_size(self) -> int:
        return len(self._members)

    def counts_for(self, value: Any) -> tuple[int, int]:
        """(v1, v2) for a given negation-attribute value (for tests)."""
        return (len(self._live1.get(value, ())),
                len(self._live2.get(value, ())))


class NegationFifoOp(PhysicalOperator):
    """Negation over two WKS inputs (UPA, outside the hybrid region).

    Each side's tuples expire in arrival order, so each side keeps one FIFO
    queue of ``(exp, seq, record)`` — ``seq`` counts arrivals on both sides
    and breaks ``exp`` ties across them — and each value one record
    ``[live W1 tuples, live W2 count, k, value]``: its W1 tuples in arrival
    order, how many W2 tuples it has, and the answer length ``k`` (the
    answer is the value's oldest ``k`` W1 tuples).  A W1 arrival admits
    ``live[k]``, a W2 arrival evicts ``live[k-1]``, a W1 expiry drops the
    value's head (an answer member whenever ``k > 0``, so it leaves
    naturally and silently) and a W2 expiry may admit ``live[k]``.  A record
    is dropped when its value has no live tuple on either side, so no queue
    entry outlives its record.  Negative tuples cannot arrive on WKS edges;
    one that does is a planning bug and raises :class:`ExecutionError`.
    """

    eager = True
    #: Chosen only under UPA, where negation always detects its own
    #: expirations (read by the PRG602 lint rule).
    _self_expire = True

    def __init__(self, schema: Schema, left_attr: int, right_attr: int,
                 counters: Counters | None = None):
        super().__init__(schema, counters)
        self._attrs = (left_attr, right_attr)
        self._fifo1: deque[tuple[float, int, list]] = deque()
        self._fifo2: deque[tuple[float, int, list]] = deque()
        self._seq = 0
        self._records: dict[Any, list] = {}

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        if now > self.clock:
            self.clock = now
        counters = self.counters
        attr = self._attrs[input_index]
        records = self._records
        seq = self._seq
        out: list[Tuple] = []
        if input_index == 0:
            push = self._fifo1.append
            for t in tuples:
                counters.tuples_processed += 1
                if t.sign < 0:
                    self._seq = seq  # queued seqs stay unique past the raise
                    self._reject(input_index)
                value = t.values[attr]
                record = records.get(value)
                if record is None:
                    record = records[value] = [deque(), 0, 0, value]
                live = record[0]
                live.append(t)
                seq += 1
                push((t.exp, seq, record))
                k = record[2]
                if len(live) - record[1] > k:
                    admitted = live[k]
                    record[2] = k + 1
                    counters.touches += 2
                    counters.results_produced += 1
                    out.append(Tuple(admitted.values, now, admitted.exp))
                else:
                    counters.touches += 1
        else:
            push = self._fifo2.append
            for t in tuples:
                counters.tuples_processed += 1
                if t.sign < 0:
                    self._seq = seq  # queued seqs stay unique past the raise
                    self._reject(input_index)
                value = t.values[attr]
                record = records.get(value)
                if record is None:
                    record = records[value] = [deque(), 1, 0, value]
                else:
                    record[1] += 1
                seq += 1
                push((t.exp, seq, record))
                k = record[2]
                if k:
                    evicted = record[0][k - 1]
                    record[2] = k - 1
                    counters.touches += 2
                    out.append(Tuple(evicted.values, now, evicted.exp,
                                     NEGATIVE))
                else:
                    counters.touches += 1
        self._seq = seq
        return out

    def _reject(self, input_index: int) -> None:
        self.counters.negatives_processed += 1
        side = "left (W1)" if input_index == 0 else "right (W2)"
        raise ExecutionError(
            f"{type(self).__name__} received a negative tuple on input "
            f"{input_index}, {side}; the FIFO negation requires WKS inputs, "
            "which never expire prematurely (Section 3.1)")

    def expire(self, now: float) -> list[Tuple]:
        """Expire the earlier of the two heads, in ``(exp, seq)`` order,
        until neither is due."""
        if now > self.clock:
            self.clock = now
        fifo1, fifo2 = self._fifo1, self._fifo2
        counters = self.counters
        out: list[Tuple] = []
        while fifo1 or fifo2:
            if fifo1 and (not fifo2 or fifo1[0] < fifo2[0]):
                if fifo1[0][0] > now:
                    break
                record = fifo1.popleft()[2]
                live = record[0]
                live.popleft()
                counters.touches += 1
                # The head is a member iff k > 0; k - 1 = v1 - v2 keeps
                # the answer at its target size.
                k = record[2]
                if k:
                    record[2] = k - 1
                if not live and not record[1]:
                    del self._records[record[3]]
            else:
                if fifo2[0][0] > now:
                    break
                record = fifo2.popleft()[2]
                n2 = record[1] - 1
                record[1] = n2
                counters.touches += 1
                live = record[0]
                k = record[2]
                if len(live) - n2 > k:
                    admitted = live[k]
                    record[2] = k + 1
                    counters.touches += 1
                    counters.results_produced += 1
                    out.append(Tuple(admitted.values, now, admitted.exp))
                elif not live and not n2:
                    del self._records[record[3]]
        return out

    def next_expiry(self, now: float) -> float:
        """The earlier of the two queue heads (never stale: nothing leaves
        a queue out of order)."""
        boundary = self._fifo1[0][0] if self._fifo1 else _INF
        if self._fifo2 and self._fifo2[0][0] < boundary:
            boundary = self._fifo2[0][0]
        return boundary

    def state_size(self) -> int:
        return len(self._fifo1) + len(self._fifo2)

    def answer_size(self) -> int:
        return sum(record[2] for record in self._records.values())

    def counts_for(self, value: Any) -> tuple[int, int]:
        """(v1, v2) for a given negation-attribute value (for tests)."""
        record = self._records.get(value)
        return (0, 0) if record is None else (len(record[0]), record[1])
