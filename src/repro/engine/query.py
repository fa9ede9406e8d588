"""High-level continuous query facade.

:class:`ContinuousQuery` bundles a logical plan, a strategy configuration,
the compiled physical pipeline and the driver that runs it — the object
most users interact with::

    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
    result = query.run(events)
    print(result.answer())

A query runs itself as a group of one: :meth:`ContinuousQuery.run` hands
its compiled :class:`~repro.engine.driver.Driver` to the one run entry,
:func:`~repro.engine.executor.run_drivers` (per-tuple blocks or
micro-batches, drain checks, the final metrics flush, or the sharded
runtime for ``shards=k``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from ..core.annotate import explain
from ..core.metrics import Counters
from ..core.plan import LogicalNode
from ..core.sharding import analyze_partitionability
from ..streams.stream import Event
from .driver import Driver
from .executor import RunResult, check_run_args, run_drivers
from .strategies import CompiledQuery, ExecutionConfig, Mode, compile_plan
from .telemetry import run_summary


class ContinuousQuery:
    """A compiled, runnable continuous query."""

    def __init__(self, plan: LogicalNode,
                 config: ExecutionConfig | None = None):
        self.plan = plan
        self.config = config if config is not None else ExecutionConfig()
        self.counters = Counters()
        self.compiled: CompiledQuery = compile_plan(plan, self.config,
                                                    self.counters)
        #: The query's :class:`~repro.engine.driver.Driver`: its
        #: ``process_event`` is the compiled per-tuple closure itself.
        self.executor = Driver(self.compiled)

    def run(self, events: Iterable[Event],
            on_event: Callable[[Driver, Event], None] | None = None,
            batch: int | None = None, shards: int | None = None,
            shard_backend: str = "process") -> RunResult:
        """Process every event; optionally call ``on_event(driver, event)``
        after each one.

        ``batch=N`` (N > 1) selects the micro-batch path: events are grouped
        into runs of at most ``N`` and each run shares one amortized
        expiration schedule (see :mod:`repro.engine.driver` for the
        exactness argument).  ``batch=None`` or ``1`` is the paper's
        tuple-at-a-time model.  Both paths produce identical output
        streams, snapshots and expiration counters.

        ``shards=k`` (k > 1) selects key-sharded parallel execution (see
        :mod:`repro.engine.shard`): the plan is analysed for
        partitionability, compiled into ``k`` replicas, and every arrival is
        routed by a stable hash of its shard key.  ``shard_backend`` picks
        ``"serial"`` (in-process reference backend) or ``"process"``
        (forked worker pool).  Unshardable plans fall back to this query's
        own unsharded run, subscribers included, and the result's
        ``fallback_reason`` explains why (so does :meth:`explain`).
        Answers and per-instant output multisets are identical to
        unsharded execution.
        """
        check_run_args(batch, shards, shard_backend)
        driver = self.executor
        part = (analyze_partitionability(self.plan)
                if shards is not None and shards > 1 else None)
        elapsed, events_processed, arrivals, replicas = run_drivers(
            [driver], events, batch=batch, shards=shards,
            shard_backend=shard_backend,
            entries=[("", self.plan, self.config)], part=part,
            on_event=None if on_event is None else partial(on_event, driver))
        return RunResult(self, elapsed, events_processed, arrivals,
                         partitionability=part, replicas=replicas)

    def answer(self):
        """Current result multiset Q(now), a snapshot (see
        :meth:`Driver.answer <repro.engine.driver.Driver.answer>`)."""
        return self.executor.answer()

    def subscribe(self, callback) -> None:
        """Receive the output stream (insertions and negative tuples)."""
        self.executor.subscribe(callback)

    def explain(self) -> str:
        """The annotated plan as an indented tree (Figure 6, textually),
        plus a sharding marker — the per-stream routing keys a parallel
        run would use, or the reason the plan cannot be sharded — the
        symbolic state-bound certificate's one-line summary
        (:meth:`~repro.analysis.bounds.StateCertificate.summary`), the
        metrics registry (after a run: its instrument count, phase
        shares, worst expiration lag and peak state against the
        certificate's bound),
        which streams get a column prelude in the batch loop and why the
        others do not (:meth:`~repro.engine.driver.Driver.batch_loop`),
        and the loop the compiled query runs
        (:meth:`~repro.engine.strategies.CompiledQuery.describe`)."""
        tree = explain(self.plan, self.compiled.annotated)
        verdict = analyze_partitionability(self.plan)
        certificate = self.compiled.certificate
        registry = self.compiled.metrics
        metrics_note = (f"{len(registry)} instruments across "
                        f"{len(self.compiled.ops)} operators"
                        f"{run_summary(registry)}" if len(registry)
                        else "registered on the first state sample")
        return (f"{tree}\n-- sharding: {verdict.describe()}"
                f"\n-- bounds: {certificate.summary()}"
                f"\n-- metrics: {metrics_note}"
                f"\n-- view: {self.compiled.view_note}"
                f"\n-- columnar: {self.executor.batch_loop()}"
                f"\n-- program: {self.compiled.describe()}")

    @property
    def mode(self) -> Mode:
        return self.config.mode

    def __repr__(self) -> str:
        return f"ContinuousQuery(mode={self.mode.value}, plan={self.plan!r})"


def run_query(plan: LogicalNode, events: Iterable[Event],
              mode: Mode = Mode.UPA, **config_kwargs) -> RunResult:
    """One-shot convenience: compile, run and return the result."""
    config = ExecutionConfig(mode=mode, **config_kwargs)
    return ContinuousQuery(plan, config).run(events)
