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
from itertools import islice
from typing import Iterable, Mapping, Sequence

from ..analysis.sanitizer import verify_drain
from ..core.metrics import Counters
from ..core.plan import LogicalNode
from ..streams.stream import Arrival, Event
from .driver import Driver
from .executor import GroupRunResult, _chunked, check_run_args
from .query import ContinuousQuery
from .shard import _run_replicas, analyze_group_partitionability
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
        output stream.  Shared groups (they fuse state *across* queries,
        which a replica cannot hold independently per key) and groups
        with unshardable (or key-conflicting) members fall back to the
        ordinary lockstep run, with the reason recorded on the result.
        """
        check_run_args(batch, shards, shard_backend)
        part = reason = None
        runtime = self._seal()
        names = self.names()
        if shards is not None and shards > 1:
            if self.shared:
                reason = ("shared groups fuse subplans across queries; run "
                          "the members as an independent group to shard "
                          "them")
            else:
                entries = [(name, self[name].plan, self[name].config)
                           for name in names]
                part = analyze_group_partitionability(entries)
                reason = part.reason
                replicas = _run_replicas(
                    entries, part, events, shards=shards,
                    backend=shard_backend, batch=batch,
                    subscribers=[self[name].executor._subscribers
                                 for name in names])
                if replicas is not None:
                    return GroupRunResult(
                        self, replicas.elapsed, replicas.events_processed,
                        replicas.tuples_arrived, partitionability=part,
                        replicas=replicas)
        # Members and producers are driven through process_event /
        # process_batch, so the run-level steps happen here.  A batched
        # member takes the sample check in its batch loop; every other
        # driver — each member per tuple, each producer always
        # (SharedProducer.run feeds its per-tuple closure) — after every
        # block or chunk, as Driver.process_block does.  Members run in
        # lockstep, so the block time is the group's.
        members = [self[name].executor for name in names]
        producers = [p.driver for p in self.shared_producers()]
        blocked = producers if batch else members + producers
        start = time.perf_counter()
        n = 0
        arrivals = 0
        if batch is None:
            process_event = runtime.process_event
            size = min((d.sample_events for d in blocked),
                       default=Driver.sample_events)
            iterator = iter(events)
            while True:
                seen = n
                block_start = time.perf_counter()
                for event in islice(iterator, size):
                    process_event(event)
                    n += 1
                    if isinstance(event, Arrival):
                        arrivals += 1
                if n == seen:
                    break
                block_seconds = time.perf_counter() - block_start
                for driver in blocked:
                    driver.maybe_sample(block_seconds)
        else:
            for chunk in _chunked(events, batch):
                block_start = time.perf_counter()
                runtime.process_batch(chunk)
                block_seconds = time.perf_counter() - block_start
                for driver in blocked:
                    driver.maybe_sample(block_seconds)
                n += len(chunk)
                arrivals += sum(
                    1 for event in chunk if isinstance(event, Arrival))
        elapsed = time.perf_counter() - start
        drivers = members + producers
        for driver in drivers:
            verify_drain(driver.compiled)
            driver.flush_metrics()
        return GroupRunResult(self, elapsed, n, arrivals,
                              partitionability=part, fallback_reason=reason)

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
