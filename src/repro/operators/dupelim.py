"""Duplicate elimination: the standard operator and the improved δ.

Standard implementation (Section 2.1, Figure 2): store both the input and
the current output.  The output holds exactly one tuple per distinct value
present in the input window; when an output tuple expires it is replaced by
the youngest live input tuple with the same value, found by probing the
stored input.

Improved δ (Section 5.3.1), legal when the input is WKS or WK (no premature
expirations): do not store the input at all.  Alongside each output tuple
keep only the *youngest duplicate* seen for that value (the auxiliary output
state).  When the output tuple expires, promote the auxiliary tuple if it is
still live — it has the maximum expiration time of all duplicates, so if it
is dead every other duplicate is dead too.  Space is at most twice the
output size (never more than the input), and expiry handling is O(1).
"""

from __future__ import annotations

from typing import Hashable

from ..buffers.base import StateBuffer
from ..core.metrics import Counters
from ..core.tuples import NEGATIVE, Schema, Tuple
from ..errors import ExecutionError
from .base import PhysicalOperator


class DupElimStandardOp(PhysicalOperator):
    """The literature's duplicate elimination: stores input and output."""

    eager = True

    def __init__(self, schema: Schema, input_buffer: StateBuffer,
                 output_buffer: StateBuffer,
                 counters: Counters | None = None):
        super().__init__(schema, counters)
        self._input = input_buffer
        self._output = output_buffer

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """Standard duplicate elimination over a list (hoisted lookups)."""
        self._advance(now)
        counters = self.counters
        input_insert = self._input.insert
        output_probe = self._output.probe
        output_insert = self._output.insert
        out: list[Tuple] = []
        for t in tuples:
            counters.tuples_processed += 1
            if t.sign < 0:
                counters.negatives_processed += 1
                out += self._handle_negative(t, now)
                continue
            input_insert(t)
            if output_probe(t.values, now):
                continue  # value already represented
            output_insert(t)
            counters.results_produced += 1
            out.append(t)
        return out

    def next_expiry(self, now: float) -> float:
        """Earliest representative expiry: only the *output* buffer drives
        eager work (expired input tuples are invisible to liveness-filtered
        probes until a representative needs replacing)."""
        return self._output.next_expiry(now)

    def _handle_negative(self, t: Tuple, now: float) -> list[Tuple]:
        self._input.delete(t)
        # Was the deleted tuple the representative of its value?  One
        # uncharged pass that stops at the first (values, exp) match, so a
        # non-representative costs no touch.
        values, exp = t.values, t.exp
        for rep in self._output._bucket(values):
            if rep.values == values and rep.exp == exp:
                break
        else:
            return []
        self._output.delete(rep)
        out = [Tuple(rep.values, now, rep.exp, NEGATIVE)]
        if self._output.probe(values, now):
            # A live representative for this value already exists (the
            # deleted one was expired-but-unpurged state); promoting a
            # second one would duplicate the value in the answer.
            return out
        replacement = self._youngest_live(values, now)
        if replacement is not None:
            promoted = Tuple(replacement.values, now, replacement.exp)
            self._output.insert(promoted)
            out.append(promoted)
            self.counters.results_produced += 1
        return out

    def expire(self, now: float) -> list[Tuple]:
        """Self-managed expiry (direct / UPA): replace expired representatives."""
        self._advance(now)
        out: list[Tuple] = []
        for rep in self._output.purge_expired(now):
            if self._output.probe(rep.values, now):
                continue  # value already re-represented (lazy purge interleaving)
            replacement = self._youngest_live(rep.values, now)
            if replacement is not None:
                promoted = Tuple(replacement.values, now, replacement.exp)
                self._output.insert(promoted)
                out.append(promoted)
                self.counters.results_produced += 1
        return out

    def _youngest_live(self, values: tuple, now: float) -> Tuple | None:
        candidates = self._input.probe(values, now)
        if not candidates:
            return None
        return max(candidates, key=lambda c: c.exp)

    def purge(self, now: float) -> None:
        # The input buffer may be maintained lazily (Section 2.1).
        self._advance(now)
        self._input.purge_expired(now)

    def state_size(self) -> int:
        return len(self._input) + len(self._output)

    def state_buffers(self):
        return [("input", self._input), ("output", self._output)]


class DupElimDeltaOp(PhysicalOperator):
    """The update-pattern-aware δ operator (Section 5.3.1).

    Valid only when the input exhibits WKS or WK patterns: a negative tuple
    on the input indicates a planning bug and raises
    :class:`ExecutionError`.
    """

    eager = True

    #: As :attr:`JoinOp.readers`: under a ``DeltaStateView`` the driver's
    #: subscriber list — empty, the output state is all there is to keep.
    readers: object = True

    def __init__(self, schema: Schema, output_buffer: StateBuffer,
                 counters: Counters | None = None):
        super().__init__(schema, counters)
        self._output = output_buffer
        self._aux: dict[Hashable, Tuple] = {}

    def process_batch(self, input_index: int, tuples, now: float) -> list[Tuple]:
        """The probe/auxiliary bookkeeping with hoisted lookups — the
        operator's whole hot path is this loop."""
        self._advance(now)
        counters = self.counters
        probe = self._output.probe
        insert = self._output.insert
        aux = self._aux
        readers = self.readers
        out: list[Tuple] = []
        for t in tuples:
            counters.tuples_processed += 1
            if t.sign < 0:
                counters.negatives_processed += 1
                raise ExecutionError(
                    "the δ duplicate-elimination operator cannot process "
                    "negative tuples; its input must be WKS or WK "
                    "(Section 5.3.1)"
                )
            values = t.values
            if probe(values, now):
                # Duplicate: keep the longest-lived one as the auxiliary.
                # Over WKS input the latest arrival always has the maximum
                # exp; over WK input it need not, so compare explicitly —
                # the promotion argument ("if the auxiliary is dead, every
                # other duplicate is dead too") relies on the auxiliary
                # having the maximum exp.
                current = aux.get(values)
                if current is None or t.exp > current.exp:
                    aux[values] = t
                counters.touches += 1
                continue
            insert(t)
            counters.results_produced += 1
            if readers:
                out.append(t)
        return out

    def next_expiry(self, now: float) -> float:
        """Earliest representative expiry (auxiliaries never expire eagerly:
        they only matter at their representative's boundary)."""
        return self._output.next_expiry(now)

    def expire(self, now: float) -> list[Tuple]:
        self._advance(now)
        out: list[Tuple] = []
        for rep in self._output.purge_expired(now):
            if self._output.probe(rep.values, now):
                continue  # value already re-represented
            candidate = self._aux.pop(rep.values, None)
            self.counters.touches += 1
            if candidate is not None and candidate.exp > now:
                promoted = Tuple(candidate.values, now, candidate.exp)
                self._output.insert(promoted)
                if self.readers:
                    out.append(promoted)
                self.counters.results_produced += 1
        return out

    def state_size(self) -> int:
        return len(self._output) + len(self._aux)

    def state_buffers(self):
        return [("output", self._output)]

    @property
    def output_buffer(self) -> StateBuffer:
        return self._output
