"""Joins between a windowed stream and a relation or NRR (Section 4.1).

``NRRJoinOp`` implements ⋈_NRR: only arrivals on the streaming input trigger
probing of the non-retroactive relation, so the operator stores *nothing*
(the streaming input does not have to be materialized) and NRR updates never
produce or retract results.  Its output reflects the NRR state at each
result's generation time, as Definition 2 requires.

``RelationJoinOp`` implements ⋈_R over an ordinary relation with retroactive
update semantics: the windowed input must be stored, because an insertion
into the table joins against previously arrived (still live) window tuples,
and a deletion retracts previously reported results with negative tuples.
The output is therefore strict non-monotonic regardless of the input
pattern (Rule 5).
"""

from __future__ import annotations

from ..buffers.base import StateBuffer
from ..core.metrics import Counters
from ..core.tuples import Schema, Tuple
from ..errors import ExecutionError
from ..streams.relation import NRR, Relation
from .base import PhysicalOperator


class NRRJoinOp(PhysicalOperator):
    """Stateless join of a stream/window with a non-retroactive relation."""

    def __init__(self, schema: Schema, nrr: NRR, left_key: int, rel_key: int,
                 counters: Counters | None = None):
        super().__init__(schema, counters)
        self._nrr = nrr
        self._left_key = left_key
        self._rel_key = rel_key

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        self._advance(now)
        counters = self.counters
        match = self._nrr.match
        rel_key, left_key = self._rel_key, self._left_key
        out: list[Tuple] = []
        for t in tuples:
            counters.tuples_processed += 1
            if t.sign < 0:
                counters.negatives_processed += 1
                raise ExecutionError(
                    "an NRR-join cannot process negative tuples (Section "
                    "5.4.2); the planner must not place it above a negation "
                    "or run it under the negative tuple approach"
                )
            rows = match(rel_key, t.values[left_key])
            counters.touches += len(rows)
            counters.results_produced += len(rows)
            out.extend(Tuple(t.values + row, now, t.exp) for row in rows)
        return out


class RelationJoinOp(PhysicalOperator):
    """Stateful join of a window with a retroactively-updated relation."""

    def __init__(self, schema: Schema, relation: Relation,
                 left_key: int, rel_key: int, window_buffer: StateBuffer,
                 emit_all: bool = False, counters: Counters | None = None):
        super().__init__(schema, counters)
        self._relation = relation
        self._left_key = left_key
        self._rel_key = rel_key
        self._buffer = window_buffer
        self._emit_all = emit_all

    # -- stream side ----------------------------------------------------------

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        self._advance(now)
        counters = self.counters
        buffer = self._buffer
        match = self._relation.match
        rel_key, left_key = self._rel_key, self._left_key
        out: list[Tuple] = []
        for t in tuples:
            counters.tuples_processed += 1
            rows = match(rel_key, t.values[left_key])
            counters.touches += len(rows)
            if t.sign < 0:
                counters.negatives_processed += 1
                buffer.delete(t)
                out.extend(Tuple(t.values + row, now, t.exp, sign=-1)
                           for row in rows)
            else:
                buffer.insert(t)
                counters.results_produced += len(rows)
                out.extend(Tuple(t.values + row, now, t.exp) for row in rows)
        return out

    # -- relation side ----------------------------------------------------------

    def on_relation_insert(self, row: tuple, now: float) -> list[Tuple]:
        """Retroactive insert: join the new row with all live window tuples."""
        matches = self._buffer.probe(row[self._rel_key], now)
        out = [Tuple(w.values + row, now, w.exp) for w in matches]
        self.counters.results_produced += len(out)
        return out

    def on_relation_delete(self, row: tuple, now: float) -> list[Tuple]:
        """Retroactive delete: retract results containing the deleted row."""
        matches = self._buffer.probe(row[self._rel_key], now)
        return [Tuple(w.values + row, now, w.exp, sign=-1) for w in matches]

    # -- expiry ----------------------------------------------------------------------

    def expire(self, now: float) -> list[Tuple]:
        """Under ``emit_all`` (hybrid/NT downstream state), window expirations
        must also be signalled with negatives for every result they formed."""
        self._advance(now)
        if not self._emit_all:
            return []
        out: list[Tuple] = []
        for w in self._buffer.purge_expired(now):
            rows = self._relation.match(self._rel_key,
                                        w.values[self._left_key])
            self.counters.touches += len(rows)
            out.extend(
                Tuple(w.values + row, now, w.exp, sign=-1) for row in rows
            )
        return out

    def next_expiry(self, now: float) -> float:
        """Earliest window-tuple expiry — relevant only under ``emit_all``,
        where each expiration must be signalled with negatives on time."""
        if not self._emit_all:
            return super().next_expiry(now)
        return self._buffer.next_expiry(now)

    def purge(self, now: float) -> None:
        self._advance(now)
        if not self._emit_all:
            self._buffer.purge_expired(now)

    def state_size(self) -> int:
        return len(self._buffer)

    def state_buffers(self):
        return [("window", self._buffer)]
