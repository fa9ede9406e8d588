"""Single-pass execution of several continuous queries over one feed.

Section 5.1 notes that "operator state may be shared across similar
queries".  A :class:`QueryGroup` always does: structurally identical
stateful subplans across its registered members are fingerprinted, fused
into one compiled producer each, and replayed by the consumers' residual
pipelines (see :mod:`repro.engine.sharing`).  Ten queries over the same
join then pay one join — with answers and output streams byte-identical to
running each query alone — and a member whose whole plan is a producer
answers from the producer's view instead of storing a copy.

A group is a set of drivers: every member runs its own compiled driver,
the producers run theirs, and the one feed and finish of
:mod:`repro.engine.executor` drive them, as they drive a single query (a
group of one).  A group whose members hold no common state simply has no
producers.

Sharing is planned when the group is *sealed*: the first execution or
answer/explain access freezes the current membership and plans the
producers.  Queries added after sealing compile privately (attaching them
to a warm producer would let them observe pre-registration window
contents), as do members passed in already compiled (``QueryGroup({name:
query})``: the group did not compile them), and :meth:`QueryGroup.remove`
detaches refcount-safely — producer state is freed only when its last
consumer leaves.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..core.annotate import annotate, explain
from ..core.metrics import Counters
from ..core.plan import LogicalNode
from ..streams.stream import Event
from .driver import Driver
from .executor import GroupRunResult, check_run_args, feed_drivers, run_drivers
from .query import ContinuousQuery
from .shard import analyze_group_partitionability
from .sharing import _plan_shared
from .strategies import ExecutionConfig


class QueryGroup:
    """A named set of continuous queries fed in lockstep."""

    def __init__(self, queries: Mapping[str, ContinuousQuery] | None = None):
        #: (name, plan, config) registrations until the seal, then None.
        self._pending: list | None = []
        #: name -> (query, links, plan): one ``(producer, port)`` link per
        #: SharedScan of the member's residual plan (none when private),
        #: and the plan as registered, uncut.
        self._members: dict[str, tuple[ContinuousQuery, tuple,
                                       LogicalNode]] = {
            name: (query, (), query.plan)
            for name, query in (queries or {}).items()}
        #: The :class:`~repro.engine.sharing.SharedProducer` objects.
        self._producers: list = []

    # -- composition ----------------------------------------------------------

    def add(self, name: str, plan: LogicalNode,
            config: ExecutionConfig | None = None) -> ContinuousQuery | None:
        """Register ``plan`` under ``name``.

        Before the group is sealed, compilation is deferred until sealing
        (the sharing planner needs the whole membership) and ``None`` is
        returned; afterwards the compiled :class:`ContinuousQuery` is
        available via ``group[name]``.
        """
        if name in self:
            raise KeyError(f"query name {name!r} already registered")
        if self._pending is not None:
            self._pending.append((name, plan, config))
            return None
        # Post-seal / mid-run: a privately compiled member.  Attaching a
        # late arrival to an already-warm producer would let it observe
        # window contents from before its registration.
        query = ContinuousQuery(plan, config)
        self._members[name] = (query, (), plan)
        return query

    def add_text(self, name: str, text: str, catalog,
                 config: ExecutionConfig | None = None
                 ) -> ContinuousQuery | None:
        """Compile query *text* against a source catalog and register it."""
        from ..lang.compiler import compile_query

        return self.add(name, compile_query(text, catalog), config)

    def remove(self, name: str) -> None:
        """Drop a member query.

        Its producers are detached refcount-safely: a shared subtree's
        state is torn down only when its *last* consumer leaves, so the
        surviving members keep their warm windows, and the view a producer
        keeps goes with its last whole-plan reader.
        """
        if name in self._members:
            _query, links, _plan = self._members.pop(name)
            for producer, port in links:
                producer.detach(port)
                if not producer.ports:
                    self._producers.remove(producer)
            return
        for index, (pending_name, _p, _c) in enumerate(self._pending or ()):
            if pending_name == name:
                del self._pending[index]
                return
        raise KeyError(name)

    def _seal(self) -> None:
        """Freeze membership and plan the shared producers."""
        if self._pending is not None:
            members, self._producers = _plan_shared(self._pending)
            self._members.update(members)
            self._pending = None

    def __getitem__(self, name: str) -> ContinuousQuery:
        self._seal()
        return self._members[name][0]

    def __contains__(self, name: str) -> bool:
        return name in self.names()

    def __len__(self) -> int:
        return len(self.names())

    def names(self) -> list[str]:
        """Registered query names, in insertion order."""
        return list(self._members) + [n for n, _p, _c in self._pending or ()]

    def _drivers(self) -> list[Driver]:
        """The members' drivers, in insertion order (seals the group)."""
        self._seal()
        return [query.executor for query, _l, _p in self._members.values()]

    # -- execution ------------------------------------------------------------

    def process_event(self, event: Event) -> None:
        """Per-tuple step: a chunk of one."""
        feed_drivers(self._drivers(), (event,), False, self._producers)

    def process_batch(self, events: Sequence[Event]) -> None:
        """Micro-batch step: amortized expiration across the whole group."""
        feed_drivers(self._drivers(), events, True, self._producers)

    def run(self, events: Iterable[Event],
            batch: int | None = None, shards: int | None = None,
            shard_backend: str = "process") -> "GroupRunResult":
        """One pass over ``events``, feeding every registered query.

        ``batch=N`` (N > 1) selects the micro-batch execution path:
        expiration is amortized to batch boundaries with outputs identical
        to per-event execution.

        ``shards=k`` (k > 1) runs the whole member set as ``k`` key-routed
        replicas (see :mod:`repro.engine.shard`): each shard holds one
        pipeline per member, compiled from the member's registered (uncut)
        plan, arrivals are routed once by the combined per-stream keys, and
        a member's subscribers receive its merged output stream.  Groups
        with unshardable (or key-conflicting) members fall back to the
        ordinary lockstep run, with the reason recorded on the result.
        """
        check_run_args(batch, shards, shard_backend)
        drivers = self._drivers()
        entries = [(name, plan, query.config)
                   for name, (query, _links, plan) in self._members.items()]
        part = (analyze_group_partitionability(entries)
                if shards is not None and shards > 1 else None)
        elapsed, events_processed, arrivals, replicas = run_drivers(
            drivers, events, batch=batch, shards=shards,
            shard_backend=shard_backend, entries=entries, part=part,
            producers=self._producers)
        return GroupRunResult(self, elapsed, events_processed, arrivals,
                              partitionability=part, replicas=replicas)

    def answers(self) -> dict[str, dict]:
        """Current answer multiset of every member query."""
        return {name: dict(self[name].answer()) for name in self.names()}

    # -- introspection --------------------------------------------------------

    def shared_counters(self) -> Counters:
        """Group-level shared-state counters (zero without producers)."""
        return Counters.total(counters.snapshot()
                              for producer in self.shared_producers()
                              for counters in (producer.counters,
                                               producer.view_counters))

    def shared_state_size(self) -> int:
        """Tuples held by shared producers (zero without producers)."""
        return sum(p.state_size() for p in self.shared_producers())

    def shared_producers(self) -> list:
        """The group's :class:`~repro.engine.sharing.SharedProducer`
        objects."""
        self._seal()
        return list(self._producers)

    def total_state_size(self) -> int:
        """Shared producer state plus every member pipeline's state."""
        members = sum(self[name].compiled.state_size()
                      for name in self.names())
        return members + self.shared_state_size()

    def explain(self) -> str:
        """The group's fused DAG: producers with ``shared×k`` markers,
        then each member's residual plan, marked fused or private."""
        self._seal()
        lines = ["== shared subplans ==" + (
            "" if self._producers else "  (none)")]
        for producer in self._producers:
            lines.append(
                f"[{producer.name}] shared×{producer.consumers}  "
                f"(mode={producer.config.mode.value})")
            annotated = annotate(producer.plan)
            lines += ["  " + line for line in
                      explain(producer.plan, annotated).splitlines()]
        lines.append("== member queries ==")
        for name, (query, links, _plan) in self._members.items():
            lines.append(f"-- {name} ({'fused' if links else 'private'}) --")
            lines.append(query.explain())
        return "\n".join(lines)
