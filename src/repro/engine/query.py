"""High-level continuous query facade.

:class:`ContinuousQuery` bundles a logical plan, a strategy configuration,
the compiled physical pipeline and an executor — the object most users
interact with::

    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
    result = query.run(events)
    print(result.answer())
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..core.annotate import explain
from ..core.metrics import Counters
from ..core.plan import LogicalNode
from ..streams.stream import Event
from .executor import Executor, RunResult
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
        self.executor = Executor(self.compiled)

    def run(self, events: Iterable[Event],
            on_event: Callable[[Executor, Event], None] | None = None,
            batch: int | None = None, shards: int | None = None,
            shard_backend: str = "process") -> RunResult:
        """Process the events and return the run's result object.

        ``batch=N`` selects the micro-batch execution path (amortized
        expiration; identical outputs — see Executor.run).  ``shards=k``
        selects key-sharded parallel execution with the given backend
        (``"serial"`` or ``"process"``); unshardable plans fall back to an
        unsharded run with the reason recorded on the result and shown by
        :meth:`explain`.
        """
        return self.executor.run(events, on_event, batch=batch,
                                 shards=shards, shard_backend=shard_backend)

    def answer(self):
        """Current result multiset Q(now)."""
        return self.executor.answer()

    def subscribe(self, callback) -> None:
        """Receive the output stream (insertions and negative tuples)."""
        self.executor.subscribe(callback)

    def explain(self) -> str:
        """The annotated plan as an indented tree (Figure 6, textually),
        plus a sharding marker — the per-stream routing keys a parallel
        run would use, or the reason the plan cannot be sharded — a lint
        verdict from the static rule catalogue
        (:mod:`repro.analysis.planlint`), the symbolic state-bound
        certificate's one-line summary
        (:meth:`~repro.analysis.bounds.StateCertificate.summary`), the
        metrics registry (after a run: its instrument count, phase
        shares, worst expiration lag and peak state against the
        certificate's bound),
        the micro-batch loop the driver chose, why, and any fallbacks
        (:meth:`~repro.engine.driver.Driver.batch_loop`), and the compiled
        execution program's step summary
        (:meth:`~repro.engine.program.ExecutionProgram.describe`)."""
        from ..analysis.bounds import attach_certificate
        from ..analysis.planlint import lint_compiled
        from ..core.sharding import analyze_partitionability

        tree = explain(self.plan, self.compiled.annotated)
        verdict = analyze_partitionability(self.plan)
        report = lint_compiled(self.compiled, claimed_sharding=verdict,
                               driver=self.executor.driver)
        certificate = attach_certificate(self.compiled)
        registry = self.compiled.metrics
        metrics_note = (f"{len(registry)} instruments across "
                        f"{len(self.compiled.ops)} operators"
                        f"{run_summary(registry)}" if len(registry)
                        else "registered on the first state sample")
        return (f"{tree}\n-- sharding: {verdict.describe()}"
                f"\n-- lint: {report.summary()}"
                f"\n-- bounds: {certificate.summary()}"
                f"\n-- metrics: {metrics_note}"
                f"\n-- view: {self.compiled.view_note}"
                f"\n-- columnar: {self.executor.driver.batch_loop()}"
                f"\n-- program: {self.executor.program.describe()}")

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
