"""Group-by with incremental aggregates (Section 2.1).

"For each new input, we add it to the state buffer, determine which group it
belongs to, and return an updated result for this group.  The new result is
understood to replace a previously reported result for this group.  Also,
for each tuple that expires from the input state, we decrement the aggregate
value of the appropriate group and return a new result for this group on the
output stream.  The input must be maintained eagerly so that the returned
aggregate values are up-to-date."

Output protocol: every emission is the group's *current* result tuple
(group-key values followed by aggregate values).  A group whose last live
input tuple disappeared emits a NEGATIVE-signed result, which a stored
group view interprets as deletion of the group.  Because replacement
semantics are keyed by group rather than by (values, exp), group-by must be
the plan root; the strategy builder enforces this.

The group table *is* Rule 4's replacement view ("an array, indexed by group
label", Section 5.3.2): :class:`~repro.engine.views.GroupStateView` answers
from it, and while nobody subscribes (:attr:`GroupByOp.readers`) the
operator builds no result and expires its own input, at the head of every
arrival list and whenever the view is purged, instead of asking the driver
for passes.  Expired inputs fold in ``(exp, arrival)`` order, so every
schedule leaves the same slots, bit for bit.  ``results_produced`` counts
Section 2.1's results — one per input event whose group survives it; a pass
delivers the last of them per group.
"""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter
from typing import Hashable

from ..buffers.base import StateBuffer
from ..core.metrics import Counters
from ..core.tuples import NEGATIVE, Schema, Tuple
from .aggregates import GROUP, N, ROW, GroupSlots
from .base import PhysicalOperator

_exp_of = attrgetter("exp")


class GroupByOp(PhysicalOperator):
    """Incremental group-by; aggregation = group-by with zero keys."""

    eager = True

    #: As :attr:`JoinOp.readers`: under a ``GroupStateView`` the driver's
    #: subscriber list — empty, no result is built and the input expires
    #: on the operator's own schedule.
    readers: object = True

    def __init__(self, schema: Schema, key_indices: tuple[int, ...],
                 agg_kinds: tuple[str, ...], agg_indices: tuple[int | None, ...],
                 input_buffer: StateBuffer,
                 counters: Counters | None = None, self_expire: bool = True):
        super().__init__(schema, counters)
        # The table key: one grouping attribute's bare value, else a tuple.
        self._key_of = itemgetter(*key_indices) if key_indices \
            else lambda values: ()
        self._bare_key = len(key_indices) == 1
        self._slots = GroupSlots(agg_kinds, agg_indices)
        self._charge = len(agg_kinds)  # touches per fold: one per aggregate
        self._input = input_buffer
        self._groups: dict[Hashable, list] = {}
        # False under NT: every expiration arrives as a negative tuple.
        self._self_expire = self_expire
        #: Lower bound on every stored ``exp``: nothing is due before it.
        self._due = math.inf
        self._rows: list[tuple] | None = None  # the answer, until a fold

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """One updated group result per arrival, in arrival order."""
        if now > self.clock:
            self.clock = now
        readers = self.readers
        if not readers and now >= self._due:
            self.expire(now)  # self-expiry: what is due goes first
        self._rows = None
        counters = self.counters
        timed = self._self_expire
        insert = self._input.insert
        if len(tuples) > 1 and NEGATIVE not in [t.sign for t in tuples]:
            self._input.insert_many(tuples)
            insert = None
        out: list[Tuple] = []
        folded = produced = 0
        for t in tuples:
            adding = t.sign != NEGATIVE
            if adding:
                if insert is not None:
                    insert(t)
                if timed and t.exp < self._due:
                    self._due = t.exp
            else:
                counters.negatives_processed += 1
                if not self._input.delete(t):
                    continue  # unknown tuple: nothing to undo
            st = self._fold(t.values, adding)
            folded += 1
            produced += st[N] > 0
            if readers:
                out.append(self._result(st, now))
        counters.tuples_processed += len(tuples)
        counters.touches += folded * self._charge
        counters.results_produced += produced
        return out

    def _fold(self, values: tuple, adding: bool) -> list:
        """Fold one input into its group (made on sight, dropped empty)."""
        key = self._key_of(values)
        st = self._groups.get(key)
        if st is None:
            st = self._groups[key] = self._slots.new(
                (key,) if self._bare_key else key)
        self._slots.fold(st, values, adding)
        if st[N] <= 0:
            del self._groups[key]
        return st

    def _result(self, st: list, now: float) -> Tuple:
        """The group's current result, or a NEGATIVE tuple if it emptied."""
        return Tuple(self._slots.row(st), now,
                     sign=1 if st[N] > 0 else NEGATIVE)

    def expire(self, now: float) -> list[Tuple]:
        """Decrement each expired input; one result per touched group."""
        if now > self.clock:
            self.clock = now
        expired = self._input.purge_expired(now)
        readers = self.readers
        if not readers and self._due <= now:
            self._due = self._input.next_expiry(now)
        if not expired:
            return []
        self._rows = None
        if len(expired) > 1:
            # Buffers pop in schedule-dependent order (a partition at a
            # time, a list scan); the fold order must not depend on it.
            expired.sort(key=_exp_of)
        touched: dict[tuple, list] = {}
        produced = 0
        for t in expired:
            st = self._fold(t.values, False)
            touched[st[GROUP]] = st
            produced += st[N] > 0
        self.counters.touches += len(expired) * self._charge
        self.counters.results_produced += produced
        if readers:
            return [self._result(st, now) for st in touched.values()]
        return []

    def settle(self, now: float) -> None:
        """Self-expiry of an unread group-by: fold whatever is due."""
        if not self.readers and now >= self._due:
            self.expire(now)

    def next_expiry(self, now: float) -> float:
        """Earliest input expiry (each changes its group's aggregate) while
        someone reads; an unread group-by settles itself, asks no pass."""
        return self._input.next_expiry(now) if self.readers else math.inf

    def rows(self) -> list[tuple]:
        """Every group's result row — the answer.  A read after a fold
        finishes the rows of changed groups; a repeat read is the list."""
        rows = self._rows
        if rows is None:
            build = self._slots.row
            rows = self._rows = [st[ROW] or build(st)
                                 for st in self._groups.values()]
        return rows

    def state_size(self) -> int:
        return len(self._input)

    def state_buffers(self):
        return [("input", self._input)]

    def group_count(self) -> int:
        return len(self._groups)
