"""Physical operator protocol.

Section 2.3: "continuous query operators process two types of events:
arrivals of new tuples and expirations of old tuples."  A physical operator
therefore exposes three entry points:

* :meth:`process_batch` — a *list* of (positive or negative) tuples arrives
  on one of the operator's inputs, all sharing the same clock value; the
  return value is the list of output tuples those arrivals produce, in
  order.  It is the one arrival entry point — a single arrival is a list of
  one — and it is *list-transparent*: outputs, state transitions and counter
  charges equal those of feeding the same tuples one list each
  (``tests/test_operators.py`` holds every operator to it).  Negative tuples
  are handled here too: every stateful operator knows how to delete matching
  state and emit the derived negatives, so the same operator classes serve
  all three execution strategies (NT, DIRECT and UPA differ only in which
  buffers they plug in, whether windows emit negatives, and which result
  view stores the output).
* :meth:`expire` — the clock advanced; *eager* operators (duplicate
  elimination, group-by, negation, per Section 2.3) detect their own expired
  state and may produce new output in response.
* :meth:`purge` — periodic lazy maintenance for operators that may keep
  expired tuples around temporarily (e.g. join state, Section 2.1), trading
  memory for cheaper expiration.

Two further hooks serve the driver's compiled loops:

* :meth:`kernel` — stateless single-tuple operators declare what they
  compute (``filter`` / ``map_indices`` / ``pass``) so the driver can fuse
  them into its arrival dispatch, per tuple or column-wise.
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

    def process_batch(self, input_index: int, tuples: Sequence[Tuple],
                      now: float) -> list[Tuple]:
        """Handle a list of arrivals (positive or negative) on input
        ``input_index``, all at clock ``now``; return their outputs in
        order.  Operators that reject an arrival by design
        (``ExecutionError``) charge per tuple, so the raise leaves exactly
        the charges of the tuples up to and including the offender."""
        raise NotImplementedError

    def process(self, input_index: int, t: Tuple, now: float) -> list[Tuple]:
        """Convenience for a single arrival: a list of one.  Final — no
        operator overrides it."""
        return self.process_batch(input_index, [t], now)

    def kernel(self):
        """Fusion hook for the driver's arrival dispatch.

        Stateless single-tuple operators may return ``(kind, arg)`` so the
        driver can inline them — per tuple in the arrival closures, over
        whole columns in the column prelude — instead of paying a
        ``process_batch`` call per single-tuple list:

        * ``("filter", predicate)`` — keep the tuple iff
          ``predicate(t.values)`` (selection);
        * ``("map_indices", indices)`` — replace the values with the
          projection at ``indices``;
        * ``("pass", None)`` — forward unchanged (merge union).

        The driver replicates this operator's exact bookkeeping (clock
        advance, one ``tuples_processed`` charge per tuple seen) when it
        applies the kernel, so fusion is observationally identical to the
        un-fused path.  Stateful or clock-sensitive operators must return
        ``None`` (the default) to stay on the generic path.
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

    def state_size(self) -> int:
        """Total number of tuples held in this operator's state buffers."""
        return 0

    def state_buffers(self):
        """Introspection hook: ``(label, buffer)`` pairs for every state
        buffer this operator owns (``buffer`` may be None when a slot is
        unused, e.g. a direct-mode window).  Consumed by the state
        certificate and the telemetry sampler, so neither needs to reach
        into private attributes.
        Stateless operators return the empty default.
        """
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}(schema={list(self.schema.fields)})"
