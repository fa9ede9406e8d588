"""Sliding-window join and intersection (Section 2.1).

"Join and intersection are binary operators that store both of their inputs.
Each new arrival is inserted into its state buffer and triggers the probing
of the other input's state buffer to find matching results. ... The state of
both inputs must be maintained so that expired tuples are not used during
the probing step to produce any new results.  However, expiration can be
done periodically (lazily), as long as expired tuples can be identified and
skipped during processing."

The operator is strategy-agnostic: the executor supplies the state buffers
(hash tables under NT, arrival-ordered lists under DIRECT, FIFO/partitioned
buffers under UPA).  Probing always skips expired tuples, so lazy
maintenance never produces stale results.  Negative tuples — whether from
NT windows, from a negation below, or from a relation join — delete the
matching stored tuple and re-derive negatives for every result it
participated in (Figure 3's cascade).
"""

from __future__ import annotations

from ..buffers.base import StateBuffer
from ..core.metrics import Counters
from ..core.tuples import Schema, Tuple
from .base import PhysicalOperator


class JoinOp(PhysicalOperator):
    """Binary equi-join over two windowed inputs."""

    #: Who reads the results: the next stage (any truthy value) or, under a
    #: :class:`~repro.engine.views.JoinStateView`, the driver's subscriber
    #: list — while it is empty, arrivals insert, probe and count only.
    readers: object = True

    def __init__(self, schema: Schema, left_key: int, right_key: int,
                 left_buffer: StateBuffer, right_buffer: StateBuffer,
                 counters: Counters | None = None):
        super().__init__(schema, counters)
        self._keys = (left_key, right_key)
        self._buffers = (left_buffer, right_buffer)

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """The probe-insert loop with per-call overhead hoisted: the list
        shares one clock, one buffer-pair resolution and one key-index
        lookup.  (Liveness is still checked per probe: within a micro-batch
        the executor guarantees no stored tuple's expiry falls between the
        batch's clocks, so probing at the shared ``now`` matches the
        per-tuple schedule.)
        """
        self._advance(now)
        counters = self.counters
        own = self._buffers[input_index]
        other = self._buffers[1 - input_index]
        key_index = self._keys[input_index]
        own_insert = own.insert
        own_delete = own.delete
        probe = other.probe
        probe_all = other.probe_all
        left = input_index == 0
        out: list[Tuple] = []
        positives_out = 0
        counters.tuples_processed += len(tuples)
        if not self.readers:
            # Only a join-state view unbinds the default, and its WKS/WK
            # inputs carry no negative tuple: store, probe and count.
            for t in tuples:
                own_insert(t)
                positives_out += len(probe(t.values[key_index], now))
            counters.results_produced += positives_out
            return out
        for t in tuples:
            values, t_exp, sign = t.values, t.exp, t.sign
            if sign < 0:
                counters.negatives_processed += 1
                own_delete(t)
                # Retractions must reach every result the dead tuple
                # formed: probe *stored* partners unfiltered, because a
                # partner expiring at this very instant still anchors an
                # unretracted result.
                matches = probe_all(values[key_index])
            else:
                own_insert(t)
                matches = probe(values[key_index], now)
                positives_out += len(matches)
            if not matches:
                continue
            # ``join_tuples`` in place: stored partners are positive, so a
            # result's sign is the arrival's, retractions included.
            if left:
                out += [Tuple(values + m.values, now,
                              t_exp if t_exp < m.exp else m.exp, sign)
                        for m in matches]
            else:
                out += [Tuple(m.values + values, now,
                              m.exp if m.exp < t_exp else t_exp, sign)
                        for m in matches]
        counters.results_produced += positives_out
        return out

    def purge(self, now: float) -> None:
        self._advance(now)
        self._buffers[0].purge_expired(now)
        self._buffers[1].purge_expired(now)

    def state_size(self) -> int:
        return len(self._buffers[0]) + len(self._buffers[1])

    def state_buffers(self):
        return [("left", self._buffers[0]), ("right", self._buffers[1])]

    @property
    def buffers(self) -> tuple[StateBuffer, StateBuffer]:
        return self._buffers


class IntersectOp(JoinOp):
    """Window intersection: an equi-join on the full value tuple that emits
    the left constituent's values (one result per matching pair, preserving
    bag semantics)."""

    def __init__(self, schema: Schema, left_buffer: StateBuffer,
                 right_buffer: StateBuffer, counters: Counters | None = None):
        # Buffers must be keyed on the full value tuple by the builder.
        super().__init__(schema, 0, 0, left_buffer, right_buffer, counters)

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """JoinOp's loop with intersection's result construction: a result
        carries the left constituent's values (they equal the right-side
        values by definition of intersection) and expires when either
        constituent does, so the equi-join's inlined loop cannot be
        inherited.  ``results_produced`` counts positive results only.
        """
        self._advance(now)
        counters = self.counters
        own = self._buffers[input_index]
        other = self._buffers[1 - input_index]
        own_insert = own.insert
        own_delete = own.delete
        probe = other.probe
        probe_all = other.probe_all
        out: list[Tuple] = []
        positives_out = 0
        counters.tuples_processed += len(tuples)
        for t in tuples:
            values, t_exp, sign = t.values, t.exp, t.sign
            if sign < 0:
                counters.negatives_processed += 1
                own_delete(t)
                matches = probe_all(values)
            else:
                own_insert(t)
                matches = probe(values, now)
                positives_out += len(matches)
            out += [Tuple(values, now, t_exp if t_exp < m.exp else m.exp, sign)
                    for m in matches]
        counters.results_produced += positives_out
        return out
