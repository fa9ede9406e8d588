"""Periodic re-evaluation — the classical non-incremental baseline.

Before incremental continuous query processing, the obvious way to keep a
standing query's answer fresh was to *re-run it from scratch* every refresh
interval over the current window contents.  This module provides that
baseline so the ablation E11 (``benchmarks/experiments.py``) can quantify
what incremental maintenance — in any of the three strategies — buys over
recomputation, and where recomputation is actually competitive (tiny
windows, rare refreshes).

:class:`ReEvaluationQuery` mirrors the incremental engine's interface:
``process_event`` accepts the same timeline, the answer is recomputed via
the relational semantics of Definition 1 (re-using the oracle evaluator)
every ``refresh_interval`` time units, and ``answer()`` returns the most
recent recomputation.  Window history is pruned, so memory matches the
incremental engines' window state.
"""

from __future__ import annotations

import time
from collections import Counter as Multiset
from typing import Iterable

from repro.core.plan import LogicalNode
from repro.core.semantics import ReferenceEvaluator
from repro.streams.stream import Event
from repro.streams.window import CountWindow, TimeWindow


class _PrunedEvaluator(ReferenceEvaluator):
    """Reference evaluator that drops history no window can still see."""

    def __init__(self, plan: LogicalNode):
        super().__init__()
        self._max_time_span: dict[str, float] = {}
        self._max_count_span: dict[str, int] = {}
        for leaf in plan.leaves():
            window = leaf.stream.window
            name = leaf.stream.name
            if isinstance(window, TimeWindow):
                span = self._max_time_span.get(name, 0.0)
                self._max_time_span[name] = max(span, window.size)
            elif isinstance(window, CountWindow):
                span = self._max_count_span.get(name, 0)
                self._max_count_span[name] = max(span, window.size)
            else:
                self._max_time_span[name] = float("inf")

    def prune(self, now: float) -> None:
        for name, log in self._history.items():
            span = self._max_time_span.get(name)
            if span is not None:
                if span == float("inf"):
                    continue
                cutoff = 0
                while cutoff < len(log) and log[cutoff].ts + span <= now:
                    cutoff += 1
                if cutoff:
                    del log[:cutoff]
            else:
                keep = self._max_count_span.get(name, 0)
                if len(log) > keep:
                    del log[: len(log) - keep]


class ReEvaluationQuery:
    """From-scratch periodic recomputation of a continuous query."""

    def __init__(self, plan: LogicalNode, refresh_interval: float):
        self.plan = plan
        self.refresh_interval = refresh_interval
        self._evaluator = _PrunedEvaluator(plan)
        self._answer: Multiset = Multiset()
        self._last_refresh: float | None = None
        self.refreshes = 0
        self.tuples_scanned = 0
        self.now = float("-inf")

    def process_event(self, event: Event) -> None:
        """Record one event; refresh if the interval has elapsed."""
        self.now = max(self.now, event.ts)
        self._evaluator.observe(event)
        if (self._last_refresh is None
                or event.ts - self._last_refresh >= self.refresh_interval):
            self._refresh(event.ts)

    def run(self, events: Iterable[Event],
            batch: int | None = None) -> "ReEvalResult":
        """Replay ``events``; ``batch`` is accepted so the query runs under
        the experiments' measurer, and ignored: recomputation reads events
        one at a time."""
        start = time.perf_counter()
        n = 0
        for event in events:
            self.process_event(event)
            n += 1
        # Final refresh so answer() reflects the end of the trace.
        self._refresh(self.now)
        elapsed = time.perf_counter() - start
        return ReEvalResult(self, elapsed, n)

    def _refresh(self, now: float) -> None:
        self._evaluator.prune(now)
        self._answer = self._evaluator.evaluate(self.plan, now)
        self._last_refresh = now
        self.refreshes += 1
        self.tuples_scanned += sum(
            len(log) for log in self._evaluator._history.values()
        )

    def answer(self) -> Multiset:
        """The answer as of the most recent refresh (possibly stale by up
        to ``refresh_interval`` — that staleness is the baseline's cost)."""
        return Multiset(self._answer)


class ReEvalResult:
    """Run outcome mirroring :class:`repro.engine.executor.RunResult`."""

    def __init__(self, query: ReEvaluationQuery, elapsed: float,
                 events_processed: int):
        self.query = query
        self.elapsed = elapsed
        self.events_processed = events_processed

    def answer(self) -> Multiset:
        return self.query.answer()

    def time_per_1000(self) -> float:
        if not self.events_processed:
            return 0.0
        return 1000.0 * self.elapsed / self.events_processed

    def touches_per_tuple(self) -> float:
        """Tuples scanned during refreshes, per event — comparable to the
        incremental engines' state-touch metric."""
        if not self.events_processed:
            return 0.0
        return self.query.tuples_scanned / self.events_processed
