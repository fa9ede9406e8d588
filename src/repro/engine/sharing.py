"""Shared-plan multi-query runtime: fingerprint, fuse, record and replay.

Section 5.1 observes that "operator state may be shared across similar
queries".  This module turns a set of continuous queries into a *shared
execution DAG*: structurally identical stateful subplans (detected
bottom-up via :mod:`repro.core.fingerprint`) collapse into one **shared
producer** — a single compiled pipeline with one copy of window/operator
state — whose output stream every consumer's *residual* pipeline replays
through a :class:`~repro.operators.stateless.PortOp` source leaf.  Ten
queries over the same join then pay one join.

There is no second event loop here: a producer is an ordinary compiled
:class:`~repro.engine.driver.Driver` whose result view records its output
stream for the ports, every member — fused or private — runs its own
driver, and the group (:class:`~repro.engine.multi.QueryGroup`) holds both
and feeds them through the one feed of :mod:`repro.engine.executor`; a
group without common state simply has no producers.

Sharing is *transparent*: every member produces the byte-identical output
stream and answer it would produce compiled alone.  The argument is
DESIGN.md's "Shared multi-query execution"; in brief:

* **Equal subtrees compile equally.**  A fingerprint digests every
  runtime-relevant parameter of a subtree and producers are shared only
  among equal configs; annotation is context-free (Section 5.2) and
  :class:`~repro.core.plan.SharedScan` reads its pattern and lag through
  its ``source``, so the residual compiles as if the subtree were there.
* **Per-event ordering is replayed.**  The port sits at both positions
  the subtree held — an eager expiration participant and a leaf of every
  stream it reads — and replays the producer's output recorded per event
  phase: the driver closes every pass with ``view.purge(now)`` (the
  expire phase, keyed by the clock), and the producer's dispatch tables
  end in a cut (one list per arrival).  A producer depends on no member:
  per tuple it steps just before them at each event; batched, its own
  batch loop records the chunk first (same output, same clocks).
* **A whole shared plan is read from its producer.**  A member whose
  residual is a bare ``SharedScan`` stores nothing
  (:class:`~repro.engine.views.PortView`) and answers from the one view
  the producer keeps while such a member is attached — the answer after
  the event, or batched the chunk, being delivered.
* **What cannot fuse stays private.**  Relation joins, count windows and
  differing configs compile privately, exactly as a precompiled member.
"""

from __future__ import annotations

import dataclasses
from collections import Counter as Multiset
from typing import Iterable, Sequence

from ..core.fingerprint import fingerprint_all, shareable
from ..core.metrics import Counters
from ..core.plan import LogicalNode, SharedScan
from ..operators.stateless import PortOp
from ..streams.stream import Event, RelationUpdate, Tick
from .driver import Driver
from .query import ContinuousQuery
from .strategies import (_STATEFUL, ExecutionConfig, Mode, compile_plan,
                         _reject_reused_nodes)
from .views import ResultView, StateView

#: Minimum number of consumers for a subtree to be worth a producer.
MIN_CONSUMERS = 2


def _time_only(event: Event) -> Event:
    """A shared subtree holds no relation join (``shareable``), so a
    RelationUpdate — dispatched by the members' own drivers — is pure
    time advancement in a producer, like a Tick."""
    return Tick(event.ts) if event.__class__ is RelationUpdate else event


class _RecordingView(ResultView):
    """A producer's result view: records the output stream per event phase
    for the ports, and keeps ``stored`` — the view the subtree compiles to
    alone — while a member whose whole plan is the subtree reads it.

    Every pass ends in ``purge(now)``: what was delivered since the last
    cut is that clock's expire-phase output (passes with output run at
    strictly increasing clocks, so the clock names the event); what
    follows, up to the :meth:`cut` after the arrival's dispatch plans, is
    the dispatch phase.
    """

    def __init__(self, stored: ResultView):
        super().__init__(None)
        self.stored = stored
        # A state view is its operator's state: nothing to install.
        self._store = (None if isinstance(stored, StateView)
                       else stored.deliver)
        #: ``(clock, tuples)`` per expiration pass with output, this chunk.
        self.expired: list = []
        self._pending: list = []

    def deliver(self, outputs, now, subscribers=()):
        self._pending.extend(outputs)
        if self._store is not None:
            self._store(outputs, now)

    def purge(self, now):
        if self.stored is not None:
            self.stored.purge(now)
        if self._pending:
            self.expired.append((now, self.cut()))

    def cut(self) -> list:
        """Take everything delivered since the last cut."""
        pending, self._pending = self._pending, []
        return pending

    def drop(self) -> None:
        """The last whole-plan reader left: keep no view nobody reads."""
        self.stored = self._store = None

    def __len__(self) -> int:
        return 0 if self.stored is None else len(self.stored)


class SharedProducer:
    """One compiled copy of a shared subtree, replayed by its consumers:
    an ordinary driver whose dispatch tables end, on every stream the
    subtree reads, in a cut of the recording view."""

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
        #: What the view kept for whole-plan readers charges, apart from
        #: the subtree's own work, so a residual plan over this producer
        #: plus :attr:`counters` is exactly the plan's work alone.
        self.view_counters = Counters()
        self.compiled = compile_plan(subtree, config, self.counters,
                                     self.view_counters)
        # The view the subtree compiles to, kept while a port reads it.
        view = self._view = _RecordingView(self.compiled.view)
        self.compiled.view = view
        #: One output list per arrival on the subtree's streams, this chunk.
        arrived = self._arrived = []

        def cut_pt(_values, _now):
            arrived.append(view.cut())

        def cut_b(_values, _now, gate):
            arrived.append(view.cut())
            return gate

        self.compiled.after_arrival = (cut_pt, cut_b)
        # The same driver as every query's; the group feeds and finishes it.
        self.driver = Driver(self.compiled)
        process_event = self.driver.process_event

        def step(event: Event) -> None:
            process_event(_time_only(event))

        #: The per-tuple step: record one event (after :meth:`begin`).
        self.step = step
        #: Attached consumer ports (the refcount; see QueryGroup.remove).
        self.ports: list[PortOp] = []

    @property
    def consumers(self) -> int:
        return len(self.ports)

    def attach(self, port: PortOp, whole: bool) -> None:
        """Bind a consumer's port; ``whole``: the member's whole plan is
        this subtree, and it answers from the view kept for it."""
        port.bind(self._view.expired, self._arrived,
                  self._view.stored if whole else None)
        self.ports.append(port)

    def detach(self, port: PortOp | None = None) -> None:
        """Unbind a leaving consumer's port (None: the planner attached
        them all); keep no view that no port reads."""
        if port is not None:
            self.ports.remove(port)
        if all(p.view is None for p in self.ports):
            self._view.drop()

    def begin(self) -> None:
        """A new chunk: clear both logs and rewind every port."""
        self._view.expired.clear()
        self._arrived.clear()
        for port in self.ports:
            port.rewind()

    def run(self, events: Sequence[Event]) -> None:
        """Record a chunk ahead of the members' batch loops."""
        self.begin()
        self.driver.process_batch(list(map(_time_only, events)))

    def state_size(self) -> int:
        return self.compiled.state_size()

    def __repr__(self) -> str:
        return (f"SharedProducer({self.name}, x{self.consumers}, "
                f"fp={self.fingerprint[:8]})")


def _plan_shared(
        entries: Iterable[tuple[str, LogicalNode, ExecutionConfig | None]],
        min_consumers: int = MIN_CONSUMERS) -> tuple[dict, list]:
    """Plan and compile a group: ``(members, producers)``, each name mapped
    to ``(query, links, plan)`` — the residual query, its ``(producer,
    port)`` links and the registered plan — as
    :class:`~repro.engine.multi.QueryGroup` holds its members.

    Section 5.1 shares operator *state*, so a subtree is a candidate only
    if it can hold some: windows are materialized under NT, and otherwise
    it must contain a stateful operator — a producer for a bare window
    scan or a ``σ/π`` over one under DIRECT / UPA would save no touch and
    cost a producer step per event.  Three passes then pick *maximal*
    shared subtrees without leaving single-consumer producers behind:

    1. count every candidate subtree occurrence per config class;
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
    for _name, plan, _config in entries:
        _reject_reused_nodes(plan)  # before a cut could hide the reuse

    # Per-plan fingerprints and candidacy, cached by node id.  walk() is
    # bottom-up, so a node's children are classified before it.
    plan_fps: list[dict[int, str]] = []
    plan_shareable: list[dict[int, bool]] = []
    for _name, plan, config in entries:
        plan_fps.append(fingerprint_all(plan))
        stateful: dict[int, bool] = {}
        share: dict[int, bool] = {}
        for node in plan.walk():
            stateful[id(node)] = (
                config.mode is Mode.NT or isinstance(node, _STATEFUL)
                or any(stateful[id(child)] for child in node.children))
            share[id(node)] = stateful[id(node)] and shareable(node)
        plan_shareable.append(share)

    def count_cuts(eligible) -> Multiset:
        """Occurrences per (config, fingerprint): of *every* candidate
        subtree when ``eligible`` is None (pass 1), else of the cuts a
        top-down rewrite at ``eligible`` would make (a cut hides its
        subtree)."""
        counts: Multiset = Multiset()

        def visit(node, fps, share, cfg_key):
            key = (cfg_key, fps[id(node)])
            if share[id(node)] and (eligible is None or key in eligible):
                counts[key] += 1
                if eligible is not None:
                    return
            for child in node.children:
                visit(child, fps, share, cfg_key)

        for index, (_name, plan, config) in enumerate(entries):
            visit(plan, plan_fps[index], plan_shareable[index],
                  dataclasses.astuple(config))
        return counts

    raw = count_cuts(None)
    eligible1 = {key for key, n in raw.items() if n >= min_consumers}
    simulated = count_cuts(eligible1)
    eligible2 = {key for key, n in simulated.items() if n >= min_consumers}

    # Pass 3: cut, naming one producer per surviving (config, fingerprint).
    cuts: dict[tuple, tuple] = {}  # key -> (label, subtree, config)
    residuals = []
    for index, (name, plan, config) in enumerate(entries):
        fps = plan_fps[index]
        share = plan_shareable[index]
        cfg_key = dataclasses.astuple(config)  # every config field

        def rewrite(node: LogicalNode) -> LogicalNode:
            key = (cfg_key, fps[id(node)])
            if share[id(node)] and key in eligible2:
                label, subtree, _config = cuts.setdefault(
                    key, (f"S{len(cuts) + 1}", node, config))
                return SharedScan(subtree, key[1], label=label)
            if not node.children:
                return node
            children = [rewrite(child) for child in node.children]
            if all(new is old for new, old in zip(children, node.children)):
                return node
            return node.with_children(children)

        residuals.append((name, rewrite(plan), config, plan))

    producers = {key: SharedProducer(label, key[1], subtree, config)
                 for key, (label, subtree, config) in cuts.items()}
    members: dict[str, tuple] = {}
    for name, residual, config, plan in residuals:
        query = ContinuousQuery(residual, config)
        cfg_key = dataclasses.astuple(config)
        links = tuple((producers[(cfg_key, scan.fingerprint)], port)
                      for scan, port in query.compiled.shared_ports)
        for producer, port in links:
            producer.attach(port, isinstance(residual, SharedScan))
        members[name] = (query, links, plan)
    for producer in producers.values():
        producer.detach()
    return members, list(producers.values())
