"""Shared-plan multi-query runtime: fingerprint, fuse, and fan out.

Section 5.1 observes that "operator state may be shared across similar
queries".  This module turns a set of continuous queries into a *shared
execution DAG*: structurally identical subplans (detected bottom-up via
:mod:`repro.core.fingerprint`) collapse into one **shared producer** — a
single compiled pipeline with one copy of window/operator state — whose
output stream fans out to a :class:`~repro.operators.stateless.PortOp` in
every consumer's *residual* pipeline.  Ten queries over the same window
then pay one window.

Exactness argument (see DESIGN.md, "Shared multi-query execution")
------------------------------------------------------------------

Sharing is *transparent*: every member query produces the byte-identical
output stream, answer multiset and view snapshots it would produce when
compiled independently.

* **Equal subtrees compile equally.**  A fingerprint digests every
  runtime-relevant parameter of a subtree (operator kinds, schemas,
  predicate identities, window specs, join/grouping attributes, child
  structure), and producers are shared only among queries whose
  :class:`ExecutionConfig` is equal — so the producer's physical pipeline
  is exactly the pipeline each consumer would have built for the subtree.
  The update-pattern annotation of a subtree is context-free (patterns
  derive bottom-up from the leaves, Section 5.2), so the merged annotation
  on the shared node equals each consumer's private annotation, and the
  per-edge buffer choice (FIFO / partitioned / hash) is unchanged.
* **The port observes the exact subtree output stream.**  A producer's
  root output — insertions *and* negative tuples — is recorded per event
  phase and replayed into each consumer's port.  Predictable expirations
  are, by design, not part of that stream (Definition 2); consumers learn
  them from ``exp`` timestamps exactly as they would below an un-shared
  subtree.  :class:`~repro.core.plan.SharedScan` preserves the subtree's
  schema, output pattern and uniform lag, so the residual compiles as if
  the subtree were in place (including whole-plan ``max_span`` via the
  retained source leaves).
* **Per-event ordering is replayed, not approximated.**  Independent
  execution interleaves a query's expiration pass (bottom-up, each
  operator's emissions pushed to the root before the next expires) with
  arrival dispatch (leaves in plan order).  The runtime compiles each
  member into an *expiration program* and *dispatch program* that walk the
  residual plan in the same bottom-up order, with a "replay producer
  record here" slot exactly where the shared subtree sat.  The producer
  itself runs once per event — expiration before dispatch, as in
  tuple-at-a-time execution — the first time any consumer's program
  reaches it; later consumers replay the recorded output.  Tuples are
  immutable value objects, so fan-out shares them safely.
* **Fallback keeps sharing exactness-preserving.**  Subtrees containing
  R-/NRR-joins (relation updates mutate shared table objects) or
  count-based windows (per-executor sequence clocks), and queries whose
  configs differ, never fuse: they compile privately and run exactly as in
  an independent :class:`~repro.engine.multi.QueryGroup`.

Micro-batch execution reuses PR 1's machinery: the runtime tracks one
group-wide expiration boundary (the minimum ``next_expiry`` over every
producer and residual pipeline, lowered by every tuple that flows during
the batch) and runs the per-event expiration programs only when an event's
clock reaches it — so expiration fires once per *shared node*, not once
per query, and skipped passes are provably no-ops for every pipeline.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import Counter as Multiset
from typing import Iterable, Sequence

from ..core.annotate import annotate, explain, subtree_lag
from ..core.fingerprint import fingerprint_all, shareable
from ..core.metrics import Counters
from ..core.plan import LogicalNode, SharedScan
from ..errors import ExecutionError
from ..streams.stream import Arrival, Event, RelationUpdate
from .driver import Driver
from .program import (
    LeafStep,
    MemberProgram,
    OpStep,
    build_member_program,
    build_program,
)
from .query import ContinuousQuery
from .strategies import ExecutionConfig, compile_plan
from .telemetry import MetricsRegistry
from .views import ResultView

#: Minimum number of consumers for a subtree to be worth a producer.
MIN_CONSUMERS = 2


class _SinkView(ResultView):
    """No-op view for shared producers.

    The producer's output is materialized by its *consumers* (each residual
    pipeline has its own result view); storing it again at the producer
    would double both memory and the shared touch counts.
    """

    def __init__(self):
        super().__init__(None)

    def apply(self, t, now):
        pass

    def purge(self, now):
        pass

    def snapshot(self, now):
        return Multiset()

    def __len__(self) -> int:
        return 0


def _timed_pass(driver: Driver, run, *args) -> None:
    """One boundary-crossing expiration replay of the batch loop, charged
    to ``expiration_pass_seconds`` when the pipeline is armed.  This
    runtime interprets the step library itself, so it times itself."""
    registry = driver.compiled.telemetry
    if registry is None:
        run(*args)
        return
    start = time.perf_counter()
    run(*args)
    registry.timer("expiration_pass_seconds").add(
        time.perf_counter() - start)


def _config_key(config: ExecutionConfig) -> tuple:
    """Hashable identity of every physical-choice-relevant config field."""
    return dataclasses.astuple(config)


class SharedProducer:
    """One compiled copy of a shared subtree, fanned out to its consumers."""

    def __init__(self, name: str, fingerprint: str, subtree: LogicalNode,
                 config: ExecutionConfig):
        self.name = name
        self.fingerprint = fingerprint
        self.plan = subtree
        self.config = config
        #: Group-level shared-state counters: all producer-side work (window
        #: maintenance, shared operator state, expiration) is charged here,
        #: once, regardless of how many consumers fan out.
        self.counters = Counters()
        self.compiled = compile_plan(subtree, config, self.counters)
        self.compiled.view = _SinkView()
        # The producer runs the same compiled program the unified driver
        # runs everywhere else; no façade is needed because the shared
        # runtime owns run-level orchestration.
        self.driver = Driver(self.compiled, build_program(self.compiled))
        self._captured: list = []
        self.driver.subscribe(self._capture)
        #: Base streams the subtree reads — dispatch triggers on these.
        self.streams = frozenset(
            leaf.stream.name for leaf in subtree.leaves())
        #: Number of attached consumer ports (refcount; see detach()).
        self.consumers = 0
        self._expire_done = False
        self._dispatch_done = False
        self._expire_record: Sequence = ()
        self._dispatch_record: Sequence = ()

    def _capture(self, t, now) -> None:
        self._captured.append(t)

    # -- per-event protocol ------------------------------------------------

    def begin_event(self) -> None:
        """Reset the once-per-event phase guards."""
        self._expire_done = False
        self._dispatch_done = False

    def expire_delta(self, now: float) -> Sequence:
        """Run the producer program's EXPIRE step at ``now`` (first caller
        only) and return the recorded output delta for replay."""
        if not self._expire_done:
            self._expire_done = True
            self._captured = []
            driver = self.driver
            driver.now = now
            driver._expiration_pass(now)
            self._expire_record = self._captured
        return self._expire_record

    def dispatch_delta(self, event: Arrival, now: float,
                       tracked: bool = False) -> Sequence:
        """Run the producer program's DISPATCH step for ``event`` (first
        caller only) and return the recorded output for replay into
        consumer ports."""
        if not self._dispatch_done:
            self._dispatch_done = True
            self._captured = []
            driver = self.driver
            driver.now = now
            driver._events_processed += 1
            driver._tuples_arrived += 1
            driver._dispatch_arrival(event, now, tracked=tracked)
            self._dispatch_record = self._captured
        return self._dispatch_record

    def finish_event(self, now: float) -> None:
        """Producer-side lazy maintenance (purges never change output)."""
        self.driver._maybe_lazy_purge(now)

    def state_size(self) -> int:
        return self.compiled.state_size()

    def __repr__(self) -> str:
        return (f"SharedProducer({self.name}, x{self.consumers}, "
                f"fp={self.fingerprint[:8]})")


class _Member:
    """One member query of a shared runtime."""

    def __init__(self, name: str, query: ContinuousQuery,
                 original_plan: LogicalNode, fused: bool,
                 program: MemberProgram | None = None):
        self.name = name
        self.query = query
        self.original_plan = original_plan
        self.fused = fused
        #: The member's residual program (see
        #: :func:`repro.engine.program.build_member_program`): the
        #: bottom-up interleave of own eager operators, private leaves and
        #: producer port fan-out — the residual-plan image of the full
        #: plan's expiration/dispatch order.  None for private members
        #: (their Executor drives its own program).
        self.program = program

    @property
    def producers(self) -> tuple:
        """Producers this member consumes (with multiplicity)."""
        return self.program.producers if self.program is not None else ()


class SharedRuntime:
    """Drives a fused QueryGroup: producers once, residuals per member.

    Execution follows the independent :class:`QueryGroup` discipline —
    members are processed in insertion order, each seeing [expiration pass;
    event dispatch; lazy purge] per event — except that shared subtree work
    runs once per event inside the producers and is replayed into every
    consumer's port at the exact program position the subtree occupied.
    """

    def __init__(self):
        self._members: dict[str, _Member] = {}
        self._producers: dict[tuple, SharedProducer] = {}
        self.now: float = -math.inf
        self.events_processed = 0
        self.tuples_arrived = 0
        #: Group-level registry (``phase_seconds{phase=shared_batch}``: the
        #: fused batch loop is one loop for all members, so its time
        #: belongs to no single pipeline); None unless a fused member is
        #: armed.
        self.metrics: MetricsRegistry | None = None

    # -- membership --------------------------------------------------------

    def names(self) -> list[str]:
        return list(self._members)

    def member(self, name: str) -> _Member:
        return self._members[name]

    def producers(self) -> list[SharedProducer]:
        return list(self._producers.values())

    def add_private(self, name: str, plan: LogicalNode,
                    config: ExecutionConfig | None) -> ContinuousQuery:
        """Attach a privately compiled query (post-seal / mid-run adds).

        Sharing is established when the group is sealed; late arrivals run
        privately because attaching them to an already-warm producer would
        let them observe window contents from before their registration —
        breaking equivalence with an independently added query.
        """
        if name in self._members:
            raise KeyError(f"query name {name!r} already registered")
        query = ContinuousQuery(plan, config)
        self._members[name] = _Member(name, query, plan, fused=False)
        return query

    def remove(self, name: str) -> None:
        """Refcount-safe detach: producer buffers are freed only when the
        last consumer leaves."""
        member = self._members.pop(name)
        for producer in member.producers:
            producer.consumers -= 1
            if producer.consumers <= 0:
                self._producers.pop(
                    (_config_key(producer.config), producer.fingerprint),
                    None)

    # -- execution ---------------------------------------------------------

    def process_event(self, event: Event) -> None:
        now = event.ts
        if now < self.now:
            raise ExecutionError(
                f"out-of-order event: ts {now} after clock {self.now} "
                "(the model assumes non-decreasing timestamps, Section 2)"
            )
        self.now = now
        self.events_processed += 1
        if isinstance(event, Arrival):
            self.tuples_arrived += 1
        producers = self._producers.values()
        for producer in producers:
            producer.begin_event()
        for member in self._members.values():
            if member.fused:
                driver = member.query.executor.driver
                driver.now = now
                driver._events_processed += 1
                self._member_expire(member, now)
                self._member_dispatch(member, event, now)
            else:
                member.query.executor.process_event(event)
        for producer in producers:
            producer.finish_event(now)

    def process_batch(self, events: Sequence[Event]) -> None:
        """Micro-batch path: one amortized expiration schedule shared by
        every producer and fused residual (PR 1's boundary machinery)."""
        if not events:
            return
        fused = [m for m in self._members.values() if m.fused]
        private = [m for m in self._members.values() if not m.fused]
        producers = list(self._producers.values())
        if not fused:
            # Nothing is shared: fall through to the members' own batched
            # executors (identical to independent grouped batching).
            private_only = True
        else:
            private_only = False
            start = time.perf_counter()
            boundary = self._recompute_boundary(fused, producers)
            for event in events:
                now = event.ts
                if now < self.now:
                    raise ExecutionError(
                        f"out-of-order event: ts {now} after clock "
                        f"{self.now} (the model assumes non-decreasing "
                        "timestamps, Section 2)"
                    )
                self.now = now
                self.events_processed += 1
                if isinstance(event, Arrival):
                    self.tuples_arrived += 1
                for producer in producers:
                    producer.begin_event()
                if now >= boundary:
                    # Boundary crossed: run the full per-event expiration
                    # programs at this event's clock (identical to the
                    # per-tuple trigger), then re-anchor on surviving state.
                    # Producers first, so each pass is timed on its own:
                    # their state depends on no member, and members replay
                    # the recorded delta at the subtree's position.
                    for producer in producers:
                        _timed_pass(producer.driver, producer.expire_delta,
                                    now)
                    for member in fused:
                        driver = member.query.executor.driver
                        driver.now = now
                        _timed_pass(driver, self._member_expire, member, now)
                    boundary = self._recompute_boundary(fused, producers)
                for member in fused:
                    driver = member.query.executor.driver
                    driver.now = now
                    driver._events_processed += 1
                    self._member_dispatch(member, event, now, tracked=True)
                for producer in producers:
                    producer.finish_event(now)
                # Tracked propagation only ever lowers the per-pipeline
                # boundaries, so the group boundary is their minimum.
                for member in fused:
                    candidate = member.query.executor.driver._next_expiry
                    if candidate < boundary:
                        boundary = candidate
                for producer in producers:
                    candidate = producer.driver._next_expiry
                    if candidate < boundary:
                        boundary = candidate
            for member in fused:
                # One amortized view purge per batch (timestamp purging
                # emits no output; snapshots filter by liveness).
                member.query.executor.compiled.view.purge(self.now)
            if self.metrics is not None:
                self.metrics.timer("phase_seconds", phase="shared_batch").add(
                    time.perf_counter() - start)
        for member in private:
            member.query.executor.process_batch(events)
        if private_only:
            last = events[-1].ts
            if last >= self.now:
                self.now = last
            self.events_processed += len(events)
            self.tuples_arrived += sum(
                1 for e in events if isinstance(e, Arrival))

    def _recompute_boundary(self, fused: list, producers: list) -> float:
        boundary = math.inf
        for producer in producers:
            driver = producer.driver
            driver._next_expiry = driver._compute_next_expiry()
            if driver._next_expiry < boundary:
                boundary = driver._next_expiry
        for member in fused:
            driver = member.query.executor.driver
            driver._next_expiry = driver._compute_next_expiry()
            if driver._next_expiry < boundary:
                boundary = driver._next_expiry
        return boundary

    def _member_expire(self, member: _Member, now: float) -> None:
        """Replay the full plan's bottom-up expiration pass: own eager
        operators in residual-walk order, producer deltas fanned into the
        port at the exact position the shared subtree occupied."""
        driver = member.query.executor.driver
        for step in member.program.expire_steps:
            if type(step) is OpStep:
                op = step.op
                outputs = op.expire(now)
                driver._propagate(op, outputs, now)
            else:  # PortStep
                deltas = step.producer.expire_delta(now)
                if deltas:
                    driver._propagate(step.port, list(deltas), now)
        driver.compiled.view.purge(now)

    def _member_dispatch(self, member: _Member, event: Event, now: float,
                         tracked: bool = False) -> None:
        driver = member.query.executor.driver
        if isinstance(event, Arrival):
            driver._tuples_arrived += 1
            propagate = (driver._propagate_tracked if tracked
                         else driver._propagate)
            steps = member.program.dispatch_tables.get(event.stream)
            if steps:
                for step in steps:
                    if type(step) is LeafStep:
                        # Same stamping contract as Driver._dispatch_arrival:
                        # ``now`` is the stamping-domain clock (fused members
                        # are always time-domain; count windows stay private).
                        leaf = step.leaf
                        stamped = leaf.stamp(event.values, now, now)
                        outputs = leaf.process(0, stamped, now)
                        propagate(leaf, outputs, now)
                    else:  # PortStep
                        outs = step.producer.dispatch_delta(
                            event, now, tracked=tracked)
                        if outs:
                            propagate(step.port, list(outs), now)
        elif isinstance(event, RelationUpdate):
            driver._dispatch_relation_update(event, now, tracked=tracked)
        # Tick: the clock already advanced; expiration did the work.
        driver._maybe_lazy_purge(now)

    # -- introspection -----------------------------------------------------

    def shared_counters(self) -> Counters:
        """Aggregate of all producer counters (group-level shared state)."""
        total = Counters()
        for producer in self._producers.values():
            for field in Counters.__slots__:
                setattr(total, field,
                        getattr(total, field) + getattr(producer.counters,
                                                        field))
        return total

    def shared_state_size(self) -> int:
        return sum(p.state_size() for p in self._producers.values())

    def explain(self) -> str:
        """The fused DAG: producers with ``shared×k`` markers, then each
        member's residual plan."""
        lines: list[str] = []
        if self._producers:
            lines.append("== shared subplans ==")
            for producer in self._producers.values():
                lines.append(
                    f"[{producer.name}] shared×{producer.consumers}  "
                    f"(mode={producer.config.mode.value})")
                annotated = annotate(producer.plan)
                for line in explain(producer.plan, annotated).splitlines():
                    lines.append("  " + line)
        else:
            lines.append("== shared subplans ==  (none)")
        lines.append("== member queries ==")
        for member in self._members.values():
            marker = "fused" if member.fused else "private"
            lines.append(f"-- {member.name} ({marker}) --")
            lines.append(member.query.explain())
        return "\n".join(lines)


def build_shared_runtime(
        entries: Iterable[tuple[str, LogicalNode, ExecutionConfig | None]],
        min_consumers: int = MIN_CONSUMERS) -> SharedRuntime:
    """Plan and compile the shared runtime for a group of queries.

    Three passes pick *maximal* shared subtrees without leaving
    single-consumer producers behind:

    1. count every shareable subtree occurrence per config class;
    2. simulate top-down cuts at subtrees with ≥ ``min_consumers``
       occurrences and re-count what actually gets cut (occurrences hidden
       inside larger cuts no longer count);
    3. cut for real at the fingerprints that survived pass 2 — since the
       eligible set only shrank, every surviving fingerprint is cut at
       least as often as pass 2 counted, so every producer ends with
       ≥ ``min_consumers`` consumers.
    """
    entries = [(name, plan, config if config is not None
                else ExecutionConfig()) for name, plan, config in entries]

    # Per-plan fingerprints and shareability, cached by node id.
    plan_fps: list[dict[int, str]] = []
    plan_shareable: list[dict[int, bool]] = []
    for _name, plan, _config in entries:
        fps = fingerprint_all(plan)
        plan_fps.append(fps)
        share: dict[int, bool] = {}
        for node in plan.walk():
            share[id(node)] = shareable(node)
        plan_shareable.append(share)

    def count_cuts(eligible) -> Multiset:
        counts: Multiset = Multiset()

        def visit(node, fps, share, cfg_key):
            key = (cfg_key, fps[id(node)])
            if share[id(node)] and (eligible is None or key in eligible):
                counts[key] += 1
                if eligible is not None:
                    return  # a cut hides its subtree
            if eligible is None:
                # pass 1: raw occurrence counts of *every* subtree
                for child in node.children:
                    visit(child, fps, share, cfg_key)
            else:
                for child in node.children:
                    visit(child, fps, share, cfg_key)

        for index, (_name, plan, config) in enumerate(entries):
            visit(plan, plan_fps[index], plan_shareable[index],
                  _config_key(config))
        return counts

    raw = count_cuts(None)
    eligible1 = {key for key, n in raw.items() if n >= min_consumers}
    simulated = count_cuts(eligible1)
    eligible2 = {key for key, n in simulated.items() if n >= min_consumers}

    runtime = SharedRuntime()
    producer_seq = 0

    for index, (name, plan, config) in enumerate(entries):
        fps = plan_fps[index]
        share = plan_shareable[index]
        cfg_key = _config_key(config)
        producer_of_fp: dict[str, SharedProducer] = {}

        def rewrite(node: LogicalNode) -> LogicalNode:
            nonlocal producer_seq
            fp = fps[id(node)]
            key = (cfg_key, fp)
            if share[id(node)] and key in eligible2:
                producer = runtime._producers.get(key)
                if producer is None:
                    producer_seq += 1
                    producer = SharedProducer(f"S{producer_seq}", fp, node,
                                              config)
                    runtime._producers[key] = producer
                producer.consumers += 1
                producer_of_fp[fp] = producer
                subtree = producer.plan
                return SharedScan(
                    source=subtree,
                    pattern=annotate(subtree).output_pattern,
                    fingerprint=fp,
                    lag=subtree_lag(subtree),
                    label=producer.name,
                )
            if not node.children:
                return node
            children = [rewrite(child) for child in node.children]
            if all(new is old for new, old in zip(children, node.children)):
                return node
            return node.with_children(children)

        residual = rewrite(plan)
        if residual is plan:  # no cuts: plain private member
            runtime.add_private(name, plan, config)
            continue
        query = ContinuousQuery(residual, config)
        program = build_member_program(
            query.compiled,
            lambda node, _by_fp=producer_of_fp: _by_fp[node.fingerprint])
        runtime._members[name] = _Member(
            name, query, plan, fused=True, program=program)
        if config.telemetry and runtime.metrics is None:
            runtime.metrics = MetricsRegistry()
    return runtime
