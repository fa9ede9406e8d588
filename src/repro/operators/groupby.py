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
input tuple disappeared emits a NEGATIVE-signed result, which the group
store interprets as deletion of the group.  Because replacement semantics
are keyed by group rather than by (values, exp), group-by must be the plan
root; the strategy builder enforces this.
"""

from __future__ import annotations

from typing import Hashable

from ..buffers.base import StateBuffer
from ..core.metrics import Counters
from ..core.tuples import Schema, Tuple
from .base import PhysicalOperator
from .aggregates import Aggregate, make_aggregate


class GroupByOp(PhysicalOperator):
    """Incremental group-by; aggregation = group-by with zero keys."""

    eager = True

    def __init__(self, schema: Schema, key_indices: tuple[int, ...],
                 agg_kinds: tuple[str, ...], agg_indices: tuple[int | None, ...],
                 input_buffer: StateBuffer,
                 counters: Counters | None = None):
        super().__init__(schema, counters)
        self._key_indices = key_indices
        self._agg_kinds = agg_kinds
        self._agg_indices = agg_indices
        self._input = input_buffer
        self._aggs: dict[Hashable, list[Aggregate]] = {}
        self._sizes: dict[Hashable, int] = {}

    @property
    def n_keys(self) -> int:
        return len(self._key_indices)

    def _group_of(self, values: tuple) -> tuple:
        return tuple(values[i] for i in self._key_indices)

    def _apply(self, values: tuple, *, adding: bool) -> tuple:
        """Update aggregates for one tuple; return its group key."""
        group = self._group_of(values)
        aggs = self._aggs.get(group)
        if aggs is None:
            aggs = [make_aggregate(kind) for kind in self._agg_kinds]
            self._aggs[group] = aggs
            self._sizes[group] = 0
        for agg, attr in zip(aggs, self._agg_indices):
            arg = values[attr] if attr is not None else None
            if adding:
                agg.insert(arg)
            else:
                agg.remove(arg)
        self._sizes[group] += 1 if adding else -1
        self.counters.touches += len(aggs)
        return group

    def _result_for(self, group: tuple, now: float) -> Tuple:
        """The group's current result, or a NEGATIVE tuple if it emptied."""
        aggs = self._aggs[group]
        if self._sizes[group] <= 0:
            result = Tuple(group + tuple(a.current() for a in aggs), now, sign=-1)
            del self._aggs[group]
            del self._sizes[group]
            return result
        self.counters.results_produced += 1
        return Tuple(group + tuple(a.current() for a in aggs), now)

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """One updated group result per arrival, in arrival order."""
        self._advance(now)
        counters = self.counters
        out: list[Tuple] = []
        for t in tuples:
            counters.tuples_processed += 1
            if t.is_negative:
                counters.negatives_processed += 1
                if not self._input.delete(t):
                    continue  # unknown tuple: nothing to undo
                group = self._apply(t.values, adding=False)
            else:
                self._input.insert(t)
                group = self._apply(t.values, adding=True)
            out.append(self._result_for(group, now))
        return out

    def expire(self, now: float) -> list[Tuple]:
        """Eager expiry: decrement each expired input, one result per group."""
        self._advance(now)
        touched: dict[tuple, None] = {}
        for t in self._input.purge_expired(now):
            group = self._apply(t.values, adding=False)
            touched[group] = None
        return [self._result_for(group, now) for group in touched]

    def next_expiry(self, now: float) -> float:
        """Earliest input expiry: every expired input changes its group's
        aggregate, so group-by's boundary is its input buffer's head."""
        return self._input.next_expiry(now)

    def state_size(self) -> int:
        return len(self._input)

    def state_buffers(self):
        return [("input", self._input)]

    def group_count(self) -> int:
        return len(self._aggs)
