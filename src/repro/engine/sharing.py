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
:class:`~repro.engine.driver.Driver` whose result view records instead of
storing, every member — fused or private — runs its own driver, and the
group (:class:`~repro.engine.multi.QueryGroup`) holds both and feeds them
through the one feed of :mod:`repro.engine.executor`; an independent
group is a group with no producers.

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
  phase and replayed by each consumer's port.  Predictable expirations
  are, by design, not part of that stream (Definition 2); consumers learn
  them from ``exp`` timestamps exactly as they would below an un-shared
  subtree.  :class:`~repro.core.plan.SharedScan` preserves the subtree's
  schema, output pattern and uniform lag, so the residual compiles as if
  the subtree were in place (including whole-plan ``max_span`` via the
  retained source leaves).
* **Per-event ordering is replayed, not approximated.**  Independent
  execution interleaves a query's expiration pass (bottom-up, each
  operator's emissions pushed to the root before the next expires) with
  arrival dispatch (leaves in plan order).  The port sits at both
  positions the subtree held in the member's own pipeline: among the eager
  expiration participants at its bottom-up walk position, and among the
  leaves of every stream the subtree reads.  The driver closes every
  expiration pass with ``view.purge(now)``, so a producer's recording view
  splits one event's output at that call into its expire phase (keyed by
  the clock) and its dispatch phase (one list per arrival); the member's
  per-tuple closure or row batch loop then meets each record at exactly
  the event that produced it.  A producer's state depends on no member, so
  it runs a whole batch ahead of its consumers.  Tuples are immutable
  value objects, so fan-out shares them safely.
* **Fallback keeps sharing exactness-preserving.**  Subtrees containing
  R-/NRR-joins (relation updates mutate shared table objects) or
  count-based windows (per-executor sequence clocks), and queries whose
  configs differ, never fuse: they compile privately and run exactly as in
  an independent :class:`~repro.engine.multi.QueryGroup`.
"""

from __future__ import annotations

import dataclasses
from collections import Counter as Multiset
from typing import Iterable, Sequence

from ..core.annotate import annotate, subtree_lag
from ..core.fingerprint import fingerprint_all, shareable
from ..core.metrics import Counters
from ..core.plan import LogicalNode, SharedScan
from ..operators.stateless import PortOp
from ..streams.stream import Arrival, Event, Tick
from .driver import Driver
from .query import ContinuousQuery
from .strategies import _STATEFUL, ExecutionConfig, Mode, compile_plan
from .views import ResultView

#: Minimum number of consumers for a subtree to be worth a producer.
MIN_CONSUMERS = 2


class _RecordingView(ResultView):
    """A producer's result view: records the output stream per event phase
    instead of storing it (the consumers' views materialize it; storing it
    again here would double both memory and the shared touch counts).

    The driver closes every expiration pass with ``purge(now)``: whatever
    was delivered since the last cut is that clock's expire-phase output.
    Passes with output happen at strictly increasing clocks — a pass at
    ``now`` leaves no eager state with ``exp <= now``, and nothing
    dispatched at ``now`` expires at ``now`` — so the clock identifies the
    event.  Whatever follows, up to :meth:`cut`, is the dispatch phase.
    """

    def __init__(self):
        super().__init__(None)
        #: ``(clock, tuples)`` per expiration pass with output, this batch.
        self.expired: list = []
        self._pending: list = []

    def deliver(self, outputs, now, subscribers=()):
        self._pending.extend(outputs)

    def purge(self, now):
        if self._pending:
            self.expired.append((now, self.cut()))

    def cut(self) -> list:
        """Take everything delivered since the last cut."""
        pending, self._pending = self._pending, []
        return pending

    def __len__(self) -> int:
        return 0


class SharedProducer:
    """One compiled copy of a shared subtree, replayed by its consumers."""

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
        self._view = self.compiled.view = _RecordingView()
        # The same driver as every query's; the group feeds and finishes it.
        self.driver = Driver(self.compiled)
        #: Base streams the subtree reads — arrivals on these dispatch.
        self.streams = frozenset(
            leaf.stream.name for leaf in subtree.leaves())
        #: One output list per arrival on :attr:`streams`, this batch.
        self._arrived: list = []
        #: Attached consumer ports (the refcount; see QueryGroup.remove).
        self.ports: list[PortOp] = []

    @property
    def consumers(self) -> int:
        return len(self.ports)

    def attach(self, port: PortOp) -> None:
        port.bind(self._view.expired, self._arrived)
        self.ports.append(port)

    def run(self, events: Sequence[Event]) -> None:
        """Record this batch's output for the ports to replay: the compiled
        per-tuple closure per event, the view's cuts splitting each event
        into ``(clock, expired)`` and one ``arrived`` list per arrival on
        the subtree's streams."""
        view = self._view
        arrived = self._arrived
        view.expired.clear()
        arrived.clear()
        for port in self.ports:
            port.rewind()
        process_event = self.driver.process_event
        streams = self.streams
        for event in events:
            if isinstance(event, Arrival):
                process_event(event)
                if event.stream in streams:
                    arrived.append(view.cut())
            else:
                # A shared subtree holds no relation join (``shareable``),
                # so a RelationUpdate — dispatched by the members' own
                # drivers — is pure time advancement here, like a Tick.
                process_event(Tick(event.ts))

    def state_size(self) -> int:
        return self.compiled.state_size()

    def __repr__(self) -> str:
        return (f"SharedProducer({self.name}, x{self.consumers}, "
                f"fp={self.fingerprint[:8]})")


def _plan_shared(
        entries: Iterable[tuple[str, LogicalNode, ExecutionConfig | None]],
        min_consumers: int = MIN_CONSUMERS) -> tuple[dict, list]:
    """Plan and compile a shared group: ``(members, producers)``, each
    name mapped to ``(query, links)`` as
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

    members: dict[str, tuple[ContinuousQuery, tuple]] = {}
    producers: dict[tuple, SharedProducer] = {}
    producer_seq = 0

    for index, (name, plan, config) in enumerate(entries):
        fps = plan_fps[index]
        share = plan_shareable[index]
        cfg_key = dataclasses.astuple(config)  # every config field
        producer_of_fp: dict[str, SharedProducer] = {}

        def rewrite(node: LogicalNode) -> LogicalNode:
            nonlocal producer_seq
            fp = fps[id(node)]
            key = (cfg_key, fp)
            if share[id(node)] and key in eligible2:
                producer = producers.get(key)
                if producer is None:
                    producer_seq += 1
                    producer = SharedProducer(f"S{producer_seq}", fp, node,
                                              config)
                    producers[key] = producer
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

        query = ContinuousQuery(rewrite(plan), config)
        links = tuple((producer_of_fp[scan.fingerprint], port)
                      for scan, port in query.compiled.shared_ports)
        for producer, port in links:
            producer.attach(port)
        members[name] = (query, links)
    return members, list(producers.values())
