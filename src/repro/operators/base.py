"""Physical operator protocol.

Section 2.3: "continuous query operators process two types of events:
arrivals of new tuples and expirations of old tuples."  A physical operator
therefore exposes three entry points:

* :meth:`process` — a (positive or negative) tuple arrives on one of the
  operator's inputs; the return value is the list of output tuples the event
  produces.  Negative tuples are handled here too: every stateful operator
  knows how to delete matching state and emit the derived negatives, so the
  same operator classes serve all three execution strategies (NT, DIRECT and
  UPA differ only in which buffers they plug in, whether windows emit
  negatives, and which result view stores the output).
* :meth:`expire` — the clock advanced; *eager* operators (duplicate
  elimination, group-by, negation, per Section 2.3) detect their own expired
  state and may produce new output in response.
* :meth:`purge` — periodic lazy maintenance for operators that may keep
  expired tuples around temporarily (e.g. join state, Section 2.1), trading
  memory for cheaper expiration.

Two further hooks support the micro-batch execution path:

* :meth:`process_batch` — a *list* of tuples arrives on one input, all
  sharing the same clock value.  The default loops over :meth:`process`;
  hot operators override it with a vectorized implementation that hoists
  per-call overhead out of the loop.  Overrides must be *transparent*:
  identical outputs, state transitions and counter charges as the loop.
* :meth:`next_expiry` — the earliest pending expiration in this operator's
  eagerly-maintained state, used by the batched executor to decide when a
  skipped expiration pass would stop being a no-op.  Boundary queries are
  scheduling overhead and charge no touches.


Every operator maintains a *local clock* — the largest timestamp it has
observed (Section 2.3.2) — which guards against premature expiration and is
exposed for inspection and tests.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.metrics import Counters, NULL_COUNTERS
from ..core.tuples import Schema, Tuple

_INF = math.inf


class PhysicalOperator:
    """Base class of all physical operators."""

    #: True for operators that must react to expirations immediately because
    #: expiration may change their output (Section 2.3).
    eager = False

    def __init__(self, schema: Schema, counters: Counters | None = None):
        self.schema = schema
        self.counters = counters if counters is not None else NULL_COUNTERS
        self.clock = float("-inf")

    # -- event entry points --------------------------------------------------

    def process(self, input_index: int, t: Tuple, now: float) -> list[Tuple]:
        """Handle an arrival (positive or negative) on input ``input_index``."""
        raise NotImplementedError

    def process_batch(self, input_index: int, tuples: Sequence[Tuple],
                      now: float) -> list[Tuple]:
        """Handle a list of arrivals on one input, all at clock ``now``.

        Semantically identical to calling :meth:`process` per tuple in
        order and concatenating the outputs; overrides exist purely to
        amortize per-call overhead and must preserve outputs, state and
        counter charges exactly.
        """
        out: list[Tuple] = []
        process = self.process
        for t in tuples:
            out.extend(process(input_index, t, now))
        return out

    def scalar_kernel(self):
        """Fusion hook for the batched executor's leaf fast path.

        Stateless single-tuple operators may return ``(kind, arg)`` so the
        executor can inline them into its arrival dispatch loop instead of
        paying a ``process_batch`` call per single-tuple list:

        * ``("filter", predicate)`` — keep the tuple iff
          ``predicate(t.values)`` (selection);
        * ``("map_indices", indices)`` — replace the values with the
          projection at ``indices``;
        * ``("pass", None)`` — forward unchanged (merge union).

        The executor replicates this operator's exact bookkeeping (clock
        advance, one ``tuples_processed`` charge per tuple seen) when it
        applies the kernel, so fusion is observationally identical to the
        un-fused path.  Stateful or clock-sensitive operators must return
        ``None`` (the default) to stay on the generic path.
        """
        return None

    def column_kernel(self):
        """Column-wise counterpart of :meth:`scalar_kernel`.

        Operators whose scalar kernel vectorizes over whole columns may
        return the column form consumed by the columnar driver's fused
        prefix loop:

        * ``("filter_rows", predicate)`` — keep the rows whose value
          tuple satisfies ``predicate`` (same predicate object as the
          scalar ``("filter", ...)`` kernel);
        * ``("take_columns", indices)`` — gather the value columns at
          ``indices`` (same index tuple as ``("map_indices", ...)``);
        * ``("pass", None)`` — forward all rows unchanged.

        The columnar driver replicates the same per-tuple bookkeeping
        contract as the scalar path (clock fold to the last reaching
        timestamp, one ``tuples_processed`` charge per tuple seen), and
        lint rule PRG605 proves scalar and column kernels agree on every
        fused prefix of the compiled plan.  Kernels that do not
        vectorize return ``None`` (the default): the driver then falls
        back to the per-row specialized loop for the whole plan.
        """
        return None

    def next_expiry(self, now: float) -> float:
        """Earliest ``exp`` (> ``now``) pending in eagerly-expired state.

        ``math.inf`` when nothing is scheduled (the default: operators with
        no eager state never force an expiration pass).  May be
        conservative (too early) but never late: the batched executor runs
        an expiration pass no later than this clock.
        """
        return _INF

    def expire(self, now: float) -> list[Tuple]:
        """Detect own expired state; return any resulting output tuples.

        Only meaningful for eager operators under self-managed (direct)
        expiration; the default is a no-op.
        """
        self._advance(now)
        return []

    def purge(self, now: float) -> None:
        """Lazily drop expired state that cannot affect future output."""
        self._advance(now)

    # -- shared helpers --------------------------------------------------------

    def _advance(self, now: float) -> None:
        if now > self.clock:
            self.clock = now

    def _count(self, t: Tuple) -> None:
        self.counters.tuples_processed += 1
        if t.is_negative:
            self.counters.negatives_processed += 1

    def state_size(self) -> int:
        """Total number of tuples held in this operator's state buffers."""
        return 0

    def state_buffers(self):
        """Monitor/introspection hook: ``(label, buffer)`` pairs for every
        state buffer this operator owns (``buffer`` may be None when a slot
        is unused, e.g. a direct-mode window).  Consumed by the plan
        linter's physical buffer rules and by checked execution's
        conformance monitors, so neither needs to reach into private
        attributes.  Stateless operators return the empty default.
        """
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}(schema={list(self.schema.fields)})"
