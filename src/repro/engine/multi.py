"""Single-pass execution of several continuous queries over one feed.

Section 5.1 notes that "operator state may be shared across similar
queries".  :class:`QueryGroup` provides both regimes:

* **Independent** (default): each plan compiles to its own pipeline and
  every event is dispatched to every member — the operational baseline of
  a monitoring deployment that keeps dozens of materialized answers fresh
  while reading the trace once.
* **Shared** (``shared=True``): structurally identical stateful subplans
  across the members are fingerprinted, fused into one compiled producer
  each, and replayed by the consumers' residual pipelines (see
  :mod:`repro.engine.sharing`).  Ten queries over the same join then pay
  one join — with answers byte-identical to independent execution.

Both are one runtime (:class:`~repro.engine.sharing.SharedRuntime`):
producers record, then every member runs its own compiled driver; an
independent group simply has no producers.

Sharing is planned when the group is *sealed*: the first execution or
answer/explain access freezes the current membership and builds the fused
runtime.  Queries added after sealing compile privately (attaching them to
a warm producer would let them observe pre-registration window contents),
and :meth:`QueryGroup.remove` detaches refcount-safely — producer state is
freed only when its last consumer leaves.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

from ..analysis.sanitizer import verify_drain
from ..core.metrics import Counters
from ..core.plan import LogicalNode
from ..streams.stream import Arrival, Event
from .executor import _chunked, check_run_args
from .query import ContinuousQuery
from .sharing import SharedRuntime, build_shared_runtime
from .strategies import ExecutionConfig


class QueryGroup:
    """A named set of continuous queries fed in lockstep."""

    def __init__(self, queries: Mapping[str, ContinuousQuery] | None = None,
                 shared: bool = False):
        if shared and queries:
            raise ValueError(
                "shared groups plan sharing from logical plans; register "
                "members with add()/add_text() instead of pre-compiled "
                "ContinuousQuery objects")
        self.shared = shared
        #: Pre-seal (shared groups only): (name, plan, config) registrations.
        self._pending: list[tuple[str, LogicalNode,
                                  ExecutionConfig | None]] = []
        #: None until sealed.  An independent group is born sealed: the
        #: same runtime with no producers, every member private.
        self._runtime: SharedRuntime | None = (
            None if shared else SharedRuntime())
        for name, query in (queries or {}).items():
            self._runtime.add(name, query)

    # -- composition ----------------------------------------------------------

    def add(self, name: str, plan: LogicalNode,
            config: ExecutionConfig | None = None) -> ContinuousQuery | None:
        """Compile ``plan`` and register it under ``name``.

        In shared mode before the group is sealed, compilation is deferred
        until sealing (the sharing planner needs the whole membership) and
        ``None`` is returned; afterwards the compiled
        :class:`ContinuousQuery` is available via ``group[name]``.
        """
        if name in self:
            raise KeyError(f"query name {name!r} already registered")
        if self._runtime is None:
            self._pending.append((name, plan, config))
            return None
        # Independent, or post-seal / mid-run: a privately compiled member
        # (see SharedRuntime.add).
        return self._runtime.add(name, ContinuousQuery(plan, config))

    def add_text(self, name: str, text: str, catalog,
                 config: ExecutionConfig | None = None
                 ) -> ContinuousQuery | None:
        """Compile query *text* against a source catalog and register it."""
        from ..lang.compiler import compile_query

        return self.add(name, compile_query(text, catalog), config)

    def remove(self, name: str) -> None:
        """Drop a member query.

        In shared mode the member's producers are detached refcount-safely:
        a shared subtree's state is torn down only when its *last* consumer
        leaves, so the surviving members keep their warm windows.
        """
        if self._runtime is not None:
            self._runtime.remove(name)
            return
        for index, (pending_name, _p, _c) in enumerate(self._pending):
            if pending_name == name:
                del self._pending[index]
                return
        raise KeyError(name)

    def _seal(self) -> SharedRuntime:
        """Freeze membership and build the fused runtime (shared mode)."""
        if self._runtime is None:
            self._runtime = build_shared_runtime(self._pending)
            self._pending = []
        return self._runtime

    def __getitem__(self, name: str) -> ContinuousQuery:
        return self._seal().member(name).query

    def __contains__(self, name: str) -> bool:
        return name in self.names()

    def __len__(self) -> int:
        return len(self.names())

    def names(self) -> list[str]:
        """Registered query names, in insertion order."""
        if self._runtime is None:
            return [n for n, _p, _c in self._pending]
        return self._runtime.names()

    # -- execution ------------------------------------------------------------

    def process_event(self, event: Event) -> None:
        self._seal().process_event(event)

    def process_batch(self, events: Sequence[Event]) -> None:
        """Micro-batch step: amortized expiration across the whole group."""
        self._seal().process_batch(events)

    def run(self, events: Iterable[Event],
            batch: int | None = None, shards: int | None = None,
            shard_backend: str = "process") -> "GroupRunResult":
        """One pass over ``events``, feeding every registered query.

        ``batch=N`` selects the micro-batch execution path (PR 1) for both
        shared and independent groups: expiration is amortized to batch
        boundaries with outputs identical to per-event execution.

        ``shards=k`` (k > 1) runs the whole member set as ``k`` key-routed
        replicas (see :mod:`repro.engine.shard`): each shard holds one
        pipeline per member, arrivals are routed once by the combined
        per-stream keys, and a member's subscribers receive its merged
        output stream.  Shared groups and groups with unshardable (or
        key-conflicting) members fall back to the ordinary lockstep run,
        with the reason recorded on the result.
        """
        check_run_args(batch, shards, shard_backend)
        if shards is not None and shards > 1:
            from .shard import run_group_sharded

            return run_group_sharded(self, events, shards=shards,
                                     backend=shard_backend, batch=batch)
        runtime = self._seal()
        start = time.perf_counter()
        n = 0
        arrivals = 0
        if batch is None:
            process_event = runtime.process_event
            for event in events:
                process_event(event)
                n += 1
                if isinstance(event, Arrival):
                    arrivals += 1
        else:
            for chunk in _chunked(events, batch):
                runtime.process_batch(chunk)
                n += len(chunk)
                arrivals += sum(
                    1 for event in chunk if isinstance(event, Arrival))
        elapsed = time.perf_counter() - start
        # Members and producers are driven through process_event /
        # process_batch, not Executor.run, so the run's closing steps
        # happen here: checked execution asserts counter conservation and
        # armed registries are brought up to date (no-ops otherwise).
        for driver in ([self[name].executor.driver for name in self.names()]
                       + [p.driver for p in self.shared_producers()]):
            verify_drain(driver.compiled)
            driver.flush_metrics()
        return GroupRunResult(self, elapsed, n, arrivals)

    def answers(self) -> dict[str, dict]:
        """Current answer multiset of every member query."""
        return {name: dict(self[name].answer()) for name in self.names()}

    # -- introspection --------------------------------------------------------

    def shared_counters(self) -> Counters:
        """Group-level shared-state counters (zero in independent mode)."""
        return self._seal().shared_counters()

    def shared_state_size(self) -> int:
        """Tuples held by shared producers (zero in independent mode)."""
        return self._seal().shared_state_size()

    def shared_producers(self) -> list:
        """The group's :class:`~repro.engine.sharing.SharedProducer`
        objects (empty in independent mode)."""
        return self._seal().producers()

    def total_state_size(self) -> int:
        """Shared producer state plus every member pipeline's state."""
        members = sum(self[name].compiled.state_size()
                      for name in self.names())
        return members + self.shared_state_size()

    def explain(self) -> str:
        """The group's plan: fused DAG with ``shared×k`` markers in shared
        mode, one annotated tree per member otherwise."""
        if self.shared:
            return self._seal().explain()
        lines: list[str] = []
        for name in self.names():
            lines.append(f"-- {name} --")
            lines.append(self[name].explain())
        return "\n".join(lines)


class GroupRunResult:
    """Aggregate outcome of a group run."""

    def __init__(self, group: QueryGroup, elapsed: float,
                 events_processed: int, tuples_arrived: int = 0):
        self.group = group
        self.elapsed = elapsed
        #: Diagnostic: total events fed, including ticks and heartbeats.
        self.events_processed = events_processed
        #: Denominator for throughput metrics: data arrivals only.
        self.tuples_arrived = tuples_arrived

    def answer(self, name: str):
        return self.group[name].answer()

    def time_per_1000(self) -> float:
        """Wall-clock seconds per 1000 *arrivals* (Section 6's reporting
        unit).  Arrivals-based so tick/heartbeat density cannot bias
        cross-run comparisons (events_processed stays as a diagnostic)."""
        if self.tuples_arrived == 0:
            return 0.0
        return self.elapsed * 1000.0 / self.tuples_arrived

    def touches(self) -> dict[str, int]:
        """Per-query deterministic state-touch totals.

        In shared mode these cover the member's *residual* pipeline only;
        shared subtree work is charged once under :meth:`shared_touches`.
        For every fused member, independent-execution touches equal its
        residual touches plus its producers' touches exactly.
        """
        return {name: self.group[name].counters.touches
                for name in self.group.names()}

    def shared_touches(self) -> int:
        """State touches charged to shared producers (once per group)."""
        return self.group.shared_counters().touches

    def total_touches(self) -> int:
        """All deterministic state touches: member residuals + shared."""
        return sum(self.touches().values()) + self.shared_touches()

    def metrics(self):
        """Group-wide merged :class:`~repro.engine.telemetry.MetricsRegistry`.

        Every member pipeline's registry is folded in under a ``query=name``
        label; in shared mode each producer's registry is added once under
        ``producer=<name>`` (shared work is charged once per group, exactly
        like :meth:`shared_touches`).  Returns None when no member ran with
        ``telemetry=True``.
        """
        from .telemetry import MetricsRegistry

        group = self.group
        parts = [(group[name].compiled.telemetry, {"query": name})
                 for name in group.names()]
        parts += [(producer.compiled.telemetry, {"producer": producer.name})
                  for producer in group.shared_producers()]
        merged = None
        for registry, labels in parts:
            if registry is None:
                continue
            if merged is None:
                merged = MetricsRegistry()
            merged.merge(registry, labels)
        return merged

    def __repr__(self) -> str:
        return (f"GroupRunResult(queries={len(self.group)}, "
                f"events={self.events_processed}, "
                f"arrivals={self.tuples_arrived}, "
                f"elapsed={self.elapsed:.3f}s)")
