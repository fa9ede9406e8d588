"""The driver: one class, the compiled paths.

A :class:`Driver` runs one :class:`~repro.engine.strategies.CompiledQuery`:
the compiled query is the program, its dispatch tables, routes and
expiration participants resolved at compile time.
Section 2's processing model: "Each new tuple is processed immediately by
all the operators in the query before the next tuple is processed.
Consequently, results are produced in timestamp order."  Before dispatching
each event the driver runs an expiration pass (so the eager expiration
interval equals the tuple inter-arrival time, the setting used in Section
6.1), and every ``lazy_interval`` time units it lets lazily-maintained
operators purge their state (default: 5% of the largest window, the paper's
default).  Pure time advancement without arrivals is modelled with Tick
events.  That model written down as an interpreter over those tables —
what the compiled paths are tested against — is
:func:`repro.testing.reference_step`; no runtime calls it.

The compiled paths
------------------

The tables are *static per query*, so every lookup an interpreter makes
per event can be resolved once, at construction — the move query compilers
make for conjunctive queries under updates (Kara et al., arXiv:2206.09032):
generate maintenance code specialized to the query shape instead of
interpreting a generic plan.  The driver compiles the tables into

* **the per-tuple loop** — one fused closure, the ``process_event``
  *instance attribute* (the class defines none), so every runner's hoist
  (``query.executor.process_event``) binds straight to it.  It runs the
  full bottom-up expiration pass before every event exactly like the
  reference interpreter, so answers, output streams and **all** counters
  (touches included) are byte-identical to it.
* **the row micro-batch loop** (:meth:`Driver.process_batch`) — amortizes
  the expiration pass, the result-view purge and the propagation walk over
  a batch while producing byte-identical output streams, view snapshots and
  structural counters.  The exactness argument (see DESIGN.md):

  - The per-tuple expiration pass at clock ``n`` emits output only when
    some eagerly-maintained tuple has ``exp <= n``; all other passes are
    no-ops.  The batch loop keeps one cached next-expiry lower bound per
    eager operator — refreshed from ``op.next_expiry`` at batch entry,
    folded down by every tuple entering that operator, re-queried after
    the operator's own expire — and gates passes on the minimum of the
    caches.  A pass runs at exactly the clock of the event that reaches
    the gate and visits only the operators whose cache has been reached;
    the skipped passes and operators provably have nothing to expire.
  - The result view's timestamp purge produces no output and answer
    snapshots filter by liveness, so the view is purged once per batch
    (and at every pass); the ``expirations`` counter equalizes at every
    batch boundary because both schedules have purged exactly the results
    with ``exp <= clock``.
  - Lazy-purge scheduling is a pure function of event clocks and is
    replayed per event.

  Only the *touches*/*probes* counters may differ from per-tuple execution
  — the amortization is precisely the removal of that redundant work.
* **the column micro-batch loop** — splits each batch, held as a
  struct-of-arrays :class:`~repro.engine.columnar.ChunkTable`, into a bulk
  *column phase* (stamp, window insert, fused stateless prefix, per stream
  over whole chunks) and an in-order *replay phase* (passes, stateful
  suffixes, lazy purges, delivery — per event, at each event's own clock).

Two row-at-a-time loops remain because each wins on its side: fed one event
per call, the per-tuple closure is 1.6–2.0× faster than the row loop at
batch size one (RESULTS.md "one operator entry point").  The compiled
query, not the caller, picks the batch loop: column plans are compiled
when every dispatch plan is expressible column-wise (time windows) *and*
one has a fused stateless prefix — the only bulk work the column phase
has — and the row loop runs otherwise (measured in DESIGN.md "the driver picks the batch
loop"; :meth:`Driver.batch_loop` reports the choice).

Why the column/replay split is exact
------------------------------------

The column phase hoists exactly three mutations ahead of their row-loop
position: window-store inserts, the leaf/prefix ``tuples_processed``
charges, and operator clock advances.  All three commute with everything
the replay phase can observe:

1. *Window inserts.*  A tuple stamped from a later event ``k`` carries
   ``exp = ts_k + span > ts_r`` for every earlier event ``r`` in the batch
   (timestamps are non-decreasing, spans positive), so an expiration pass
   replayed at ``ts_r`` can never pop it — ``purge_expired`` sees the
   identical expired set either way, and the boundary it re-queries stays a
   sound lower bound that triggers passes at the identical event clocks.
2. *Counter charges.*  ``tuples_processed`` and the buffers'
   ``inserts``/``touches`` are order-insensitive totals; ``insert_many`` is
   contractually equal to n× ``insert``.
3. *Clocks.*  Stateless operators' clocks are only ever folded upward; no
   pass, probe, or subscriber reads them mid-batch.

Everything order-sensitive — pass scheduling (``now >= gate``), stateful
suffix processing, lazy-purge grid decisions, output delivery — runs in the
replay phase, per event, in arrival order, against exactly the state the
row loop would see.  Batches containing relation updates or non-monotone
timestamps take the row loop, which is trivially identical, and are
counted by reason in :attr:`Driver.batch_fallbacks`.  Every loop evaluates
the one kernel triple the compile stored in ``DispatchPlan.prefix``, so no
two loops can disagree on what a fused operator computes.

Instrumentation
---------------

Every driver reports through its own loops
(:class:`~repro.engine.telemetry.DriverMetrics`): counters, fallbacks,
state gauges and expiration lag exactly, clocks only on the batch after
each state sample (one flag read per batch selects it) — per phase
boundary (``phase_seconds``), per column-phase call (``op_process_seconds``)
and around its first expiration pass (``expiration_pass_seconds``,
``op_expire_seconds``).  The batch loops end with the sample check; the
per-tuple closure carries none, so the one feed
(:func:`~repro.engine.executor.feed_drivers`) makes it after every chunk
it feeds through the closure and times the chunk after each sample
(``per_tuple``).  Instruments are registered on the first sample.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress, count, islice
from operator import gt as _gt
from time import perf_counter as perf
from typing import Callable, Sequence

from ..analysis.bounds import attach_certificate
from ..core.tuples import Tuple
from ..errors import ExecutionError
from ..streams.relation import NRR
from ..streams.stream import Arrival, Event, RelationUpdate, Tick
from ..streams.window import TimeWindow
from ..operators.stateless import PortOp
from .columnar import ChunkTable, take_columns
from .telemetry import DriverMetrics, MetricsRegistry

_INF = math.inf


class Driver:
    """Runs one compiled query over an event sequence.

    Keep a driver at 30 instance attributes or fewer: past that CPython
    stops sharing the instance's keys and every ``self.x`` in the loops
    loses its inline cache (2.5 % of ``q1_ftp``; ``test_program.py``).
    """

    #: Events between two state samples (each followed by one timed batch).
    sample_events = 4096

    #: The compiled per-tuple loop: an instance attribute (set in
    #: ``__init__``), so a runner's hoist binds the closure directly.
    process_event: Callable[[Event], None]

    def __init__(self, compiled):
        self.compiled = compiled
        self.now: float = -math.inf
        self._seq: dict[str, int] = {}
        self._last_purge: float | None = None
        self._events_processed = 0
        self._tuples_arrived = 0
        self._subscribers: list = []
        compiled.view.bind(self._subscribers)
        span = compiled.max_span
        interval = compiled.config.lazy_interval
        if interval is None and span is not None:
            interval = 0.05 * span
        self._lazy_interval = interval
        # What the per-event steps read, bound once; the closures bind the
        # rest of the compiled tables at construction.
        self._lazy_ops = compiled.lazy_ops
        self._time_domain = compiled.time_domain != "count"
        self._count_stream = compiled.count_stream
        self._lazy_check = interval is not None and bool(self._lazy_ops)
        #: Batches that could not take the loop the column vocabulary
        #: offers, by reason (``relation_update``, ``non_monotone_ts``,
        #: ``count_window``, …).  Always on: one dict update per such batch.
        self.batch_fallbacks: dict[str, int] = {}
        self._compile_closures()
        self._compile_column_plans()
        #: What the loops charge (see "Instrumentation").
        self._metrics = DriverMetrics(
            compiled, [plan.leaf for stream in self._col_plans
                       for plan in compiled.dispatch[stream]])
        # The symbolic state-bound certificate; in checked mode its
        # monitors are armed now, so the one finish can validate every
        # driver, however it was built.
        attach_certificate(compiled)

    # -- public API --------------------------------------------------------

    @property
    def tuples_arrived(self) -> int:
        """Stream arrivals processed so far (the per-1000-tuples
        denominator)."""
        return self._tuples_arrived

    def subscribe(self, callback) -> None:
        """Receive the query's *output stream*: every real (insertion) and
        negative (deletion) tuple, as in Definition 2.

        The callback is invoked as ``callback(tuple, now)``.  Predictable
        expirations are — by design — not signalled: each delivered tuple
        carries its ``exp`` timestamp, and the update-pattern classification
        exists precisely so consumers can manage such expirations themselves
        (only unpredictable, strict non-monotonic deletions arrive as
        negative tuples).
        """
        self._subscribers.append(callback)

    def answer(self):
        """Current result multiset Q(now)."""
        return self.compiled.view.snapshot(self.now)

    def batch_loop(self) -> str:
        """Which micro-batch loop this driver takes, and why — the
        ``-- columnar:`` explain footer."""
        if self._row_loop[0] is not None:
            loop = f"row loop: {self._row_loop[0]}"
        else:
            plans = self._col_plans
            loop = (f"on ({sum(map(len, plans.values()))} column plan(s) "
                    f"across {len(plans)} stream(s), struct-of-arrays chunks)")
        fallbacks = ", ".join(
            f"{reason}={n}" for reason, n in sorted(self.batch_fallbacks.items()))
        return f"{loop}; fallbacks: {fallbacks}" if fallbacks else loop

    # -- static introspection (ownership analysis) -------------------------

    def introspection_roots(self) -> dict:
        """Named mutable structures this driver owns, enumerable without
        executing anything — the entry points the ALS7xx ownership
        analysis walks (``analysis/ownership.py``)."""
        compiled = self.compiled
        return {
            "dispatch": compiled.dispatch,
            "expire_ops": compiled.expire_ops,
            "lazy_ops": compiled.lazy_ops,
            "routes": compiled.routes,
            "leaf_bindings": compiled.leaf_bindings,
            "subscribers": self._subscribers,
            "boundaries": self._boundaries,
        }

    def compiled_closures(self):
        """``(name, closure)`` pairs for every compiled closure, without
        executing anything — the ALS702 ownership rule walks their
        ``__closure__`` cells to prove no pre-seal plan object was
        captured."""
        yield "process_event", self.process_event
        columns = {stream: [fn for fn, _slot in pairs]
                   for stream, pairs in self._col_plans.items()}
        for kind, table in (("arrival_pt", self._arrivals_pt),
                            ("arrival_b", self._arrivals_b),
                            ("column", columns)):
            for stream, fns in table.items():
                for i, fn in enumerate(fns):
                    yield f"{kind}:{stream}[{i}]", fn

    # -- steps the compiled loops call --------------------------------------

    def _clock_for(self, event: Event) -> float:
        if self._time_domain:
            return event.ts
        # Count-based windows: the clock is the count-stream's sequence
        # number; it advances only on arrivals of that stream.
        if (isinstance(event, Arrival)
                and event.stream == self._count_stream):
            self._seq[event.stream] = self._seq.get(event.stream, 0) + 1
        return self._seq.get(self._count_stream, 0)

    def _dispatch_relation_update(self, event: RelationUpdate,
                                  now: float) -> None:
        compiled = self.compiled
        relation = compiled.relations.get(event.relation)
        if relation is None:
            raise ExecutionError(
                f"relation {event.relation!r} is not referenced by the query"
            )
        if isinstance(relation, NRR):
            # Non-retroactive: just version the table; no results change.
            if event.op == RelationUpdate.INSERT:
                relation.insert_at(now, event.values)
            else:
                relation.delete_at(now, event.values)
            return
        if event.op == RelationUpdate.INSERT:
            relation.insert(event.values)
        else:
            relation.delete(event.values)
        for op in compiled.relation_bindings.get(event.relation, ()):
            if event.op == RelationUpdate.INSERT:
                outputs = op.on_relation_insert(event.values, now)
            else:
                outputs = op.on_relation_delete(event.values, now)
            if not outputs:
                continue
            for parent, slot in compiled.routes[id(op)]:
                outputs = parent.process_batch(slot, outputs, now)
                if not outputs:
                    break
            else:
                compiled.view.deliver(outputs, now, self._subscribers)

    def _maybe_lazy_purge(self, now: float) -> None:
        """Purge lazily-maintained operators at ``anchor + k * interval``
        (integer ``k``), anchored at the first event's clock without a
        purge; ``_last_purge`` advances along that grid, not to the
        triggering clock, so sparse traces do not drift the schedule."""
        interval = self._lazy_interval
        if interval is None or not self._lazy_ops:
            return
        if self._last_purge is None:
            self._last_purge = now  # anchor the schedule at trace start
        if now - self._last_purge >= interval:
            for op in self._lazy_ops:
                op.purge(now)
            if interval > 0:
                # Stay on the anchored grid: jump to the latest scheduled
                # point at or before ``now`` instead of re-anchoring at
                # ``now``.
                self._last_purge += interval * math.floor(
                    (now - self._last_purge) / interval)
            else:  # degenerate non-positive interval: purge every event
                self._last_purge = now

    # -- closure compilation -----------------------------------------------

    def _compile_closures(self) -> None:
        """Compile the compiled query's tables into this driver's row-path
        closures.  Bound methods are resolved *now*: checked-mode monitors
        shadow ``process``/``process_batch``/``expire`` at compile time,
        before any driver exists, so the captured callables are the
        monitored ones.  Closures are per driver: two drivers of one
        compiled query share no mutable state."""
        compiled = self.compiled
        expire_ops = compiled.expire_ops
        eager_index = {id(op): i for i, op in enumerate(expire_ops)}
        self._eager_index = eager_index
        #: One cached next-expiry lower bound per eager participant;
        #: refreshed from op.next_expiry at batch entry, folded down by
        #: flowing tuples, re-queried (for that op only) after its expire.
        self._boundaries = [-_INF] * len(expire_ops)
        #: (op, bound expire, ((bound process_batch, slot, cache_idx),...))
        self._pass_plan = tuple(
            (op, op.expire, self._stages(compiled.routes[id(op)]))
            for op in expire_ops)
        arrivals_pt: dict[str, tuple] = {}
        arrivals_b: dict[str, tuple] = {}
        for stream, plans in compiled.dispatch.items():
            pairs = [self._compile_arrival(plan) for plan in plans]
            arrivals_pt[stream] = tuple(pt for pt, _b in pairs)
            arrivals_b[stream] = tuple(b for _pt, b in pairs)
        self._arrivals_pt = arrivals_pt
        self._arrivals_b = arrivals_b
        self.process_event = self._compile_event_loop()

    def _stages(self, route) -> tuple:
        """``route`` with every lookup bound: ``(process_batch, slot,
        boundary-cache index or -1)`` per stage."""
        eager_index = self._eager_index
        return tuple((parent.process_batch, slot,
                      eager_index.get(id(parent), -1))
                     for parent, slot in route)

    def _compile_suffix(self, stages):
        """The residual stateful route of one dispatch plan (bound by
        :meth:`_stages`) as a closure ``(outputs, now, gate) -> gate``
        over a non-empty list: stage-input folds into the boundary caches,
        generic ``process_batch`` stages, DELIVER.

        Only stages that are eager participants fold: stateless and
        lazily-purged stages never produce pass output, so scheduling
        passes for their inputs would only add no-ops.
        """
        deliver = self.compiled.view.deliver
        subscribers = self._subscribers  # list identity is stable
        boundaries = self._boundaries

        def run_suffix(outputs, now, gate):
            for pb, slot, idx in stages:
                if idx >= 0:
                    low = _INF
                    for out in outputs:
                        if out.exp < low:
                            low = out.exp
                    if low < boundaries[idx]:
                        boundaries[idx] = low
                        if low < gate:
                            gate = low
                outputs = pb(slot, outputs, now)
                if not outputs:
                    return gate
            deliver(outputs, now, subscribers)
            return gate

        return run_suffix

    def _compile_arrival(self, plan):
        """Compile one ``DispatchPlan`` into (per-tuple, row-batch) arrival
        closures with every lookup bound into locals.  Only the row-batch
        one threads the gate through its return value and folds into the
        boundary caches: the per-tuple loop runs the full pass per event."""
        if isinstance(plan.leaf, PortOp):
            return self._compile_port_arrival(plan)
        compiled = self.compiled
        counters = compiled.counters
        deliver = compiled.view.deliver
        subscribers = self._subscribers
        leaf = plan.leaf
        stamp = leaf.stamp
        boundaries = self._boundaries
        store = leaf._store
        prefix = plan.prefix
        suffix = self._stages(plan.suffix)
        run_suffix = self._compile_suffix(suffix)
        leaf_idx = self._eager_index.get(id(leaf), -1)

        def window_pt(values, now):
            # Inlined WindowOp arrival: clock advance, one
            # tuples_processed charge, store insertion under NT, then the
            # fused prefix (``kernel`` contract: clock advance + one
            # charge per operator seen).
            t = stamp(values, now, now)
            if now > leaf.clock:
                leaf.clock = now
            counters.tuples_processed += 1
            if store is not None:
                store.insert(t)
            for op, kind, arg in prefix:
                if now > op.clock:
                    op.clock = now
                counters.tuples_processed += 1
                if kind == "filter":
                    if not arg(t.values):
                        return
                elif kind == "map_indices":
                    t = t.with_values(tuple(t.values[i] for i in arg))
                # "pass": forward unchanged
            outputs = [t]
            for pb, slot, _idx in suffix:
                outputs = pb(slot, outputs, now)
                if not outputs:
                    return
            deliver(outputs, now, subscribers)

        def window_b(values, now, gate):
            t = stamp(values, now, now)
            if now > leaf.clock:
                leaf.clock = now
            counters.tuples_processed += 1
            if store is not None:
                store.insert(t)
            if leaf_idx >= 0:
                # The stamped tuple entered eager window state (even if a
                # filter drops it upstream): lower this leaf's cached
                # boundary (and the global gate) to its exp.
                exp = t.exp
                if exp < boundaries[leaf_idx]:
                    boundaries[leaf_idx] = exp
                    if exp < gate:
                        gate = exp
            for op, kind, arg in prefix:
                if now > op.clock:
                    op.clock = now
                counters.tuples_processed += 1
                if kind == "filter":
                    if not arg(t.values):
                        return gate
                elif kind == "map_indices":
                    t = t.with_values(tuple(t.values[i] for i in arg))
            return run_suffix([t], now, gate)

        return window_pt, window_b

    def _compile_port_arrival(self, plan):
        """:meth:`_compile_arrival` for a shared port: the arrival is the
        trigger, the port's next recorded list is the input, and the whole
        route is the suffix (its boundary folds are idle per-tuple, where
        the full pass runs per event)."""
        pull = plan.leaf.pull
        run_suffix = self._compile_suffix(self._stages(plan.suffix))

        def port_pt(_values, now):
            outputs = pull()
            if outputs:
                run_suffix(list(outputs), now, _INF)

        def port_b(_values, now, gate):
            outputs = pull()
            return run_suffix(list(outputs), now, gate) if outputs else gate

        return port_pt, port_b

    def _compile_event_loop(self):
        """Compile the fused per-tuple event loop: one closure covering
        expire → dispatch → propagate → purge → deliver with every step
        resolved into locals.  Semantically identical to
        :func:`repro.testing.reference_step` (full pass per event, same
        bottom-up order, same dispatch), minus the per-event lookups."""
        driver = self
        compiled = self.compiled
        deliver = compiled.view.deliver
        view_purge = compiled.view.purge
        subscribers = self._subscribers
        time_domain = self._time_domain
        clock_for = self._clock_for
        dispatch_relation_update = self._dispatch_relation_update
        maybe_lazy_purge = self._maybe_lazy_purge
        lazy_check = self._lazy_check
        get_plans = self._arrivals_pt.get
        pass_plan = self._pass_plan

        def process_event(event: Event) -> None:
            now = event.ts if time_domain else clock_for(event)
            if now < driver.now:
                raise ExecutionError(
                    f"out-of-order event: ts {now} after clock "
                    f"{driver.now} (the model assumes non-decreasing "
                    "timestamps, Section 2)"
                )
            driver.now = now
            driver._events_processed += 1
            # Full bottom-up expiration pass (the per-tuple schedule).
            for _op, expire, stages in pass_plan:
                outputs = expire(now)
                if outputs:
                    for pb, slot, _idx in stages:
                        outputs = pb(slot, outputs, now)
                        if not outputs:
                            break
                    else:
                        deliver(outputs, now, subscribers)
            view_purge(now)
            if isinstance(event, Arrival):
                driver._tuples_arrived += 1
                plans = get_plans(event.stream)
                if plans is not None:
                    values = event.values
                    for fn in plans:
                        fn(values, now)
            elif isinstance(event, RelationUpdate):
                dispatch_relation_update(event, now)
            elif isinstance(event, Tick):
                pass
            else:  # pragma: no cover - event model is closed
                raise ExecutionError(
                    f"unknown event type {type(event).__name__}")
            if lazy_check:
                maybe_lazy_purge(now)

        return process_event

    def _anchor_boundaries(self) -> float:
        """Re-anchor every boundary cache on live state and return their
        minimum, the pass gate.  Runs once per batch (and after a relation
        update, whose deltas may land anywhere in the pipeline); inside a
        batch the caches are maintained incrementally instead."""
        now = self.now
        boundaries = self._boundaries
        gate = _INF
        for i, (op, _expire, _stages) in enumerate(self._pass_plan):
            low = op.next_expiry(now)
            boundaries[i] = low
            if low < gate:
                gate = low
        return gate

    # -- column-plan compilation -------------------------------------------

    def _compile_column_plans(self) -> None:
        """Choose the micro-batch loop from the dispatch tables, and compile
        one column-phase closure per dispatch plan when it is the column
        loop.

        The column loop needs every leaf to stamp a time window's ``exp``
        column, and pays only when some plan gives the bulk phase a fused
        stateless prefix to evaluate.  ``_row_loop`` is ``(reason,
        fallback)``: why batches take the row loop (None on the column
        loop), and the ``batch_fallbacks`` key charged per batch when that
        is a limit of the column vocabulary rather than the faster choice.
        """
        self._row_loop = reason, _fallback = self._row_loop_reason()
        #: stream -> ((column-phase closure, DriverMetrics slot), ...)
        slots = count(DriverMetrics.PASS + 1)
        self._col_plans: dict[str, tuple] = {} if reason else {
            stream: tuple((self._compile_column_plan(plan), next(slots))
                          for plan in plans)
            for stream, plans in self.compiled.dispatch.items()}

    def _row_loop_reason(self) -> tuple[str | None, str | None]:
        """Why batches take the row loop (None for the column loop), and
        the fallback key when that is a limit of the column vocabulary."""
        if not self._time_domain:
            return "count window", "count_window"
        fused = False
        for plans in self.compiled.dispatch.values():
            for plan in plans:
                if isinstance(plan.leaf, PortOp):
                    # replays lists at recorded clocks: nothing columnar
                    return "shared port", None
                if not isinstance(plan.leaf.window, TimeWindow):
                    # window=None; no exp to stamp
                    return "unbounded stream", "unbounded_stream"
                fused = fused or bool(plan.prefix)
        return (None if fused else "no stateless prefix"), None

    def _compile_column_plan(self, plan):
        """One dispatch plan → its column-phase closure: over one stream's
        rows of a chunk (indices, value tuples) the bulk work — stamp,
        window insert, fused prefix over whole columns — queuing
        ``(suffix, tuple)`` pairs on ``pending`` for the in-order replay."""
        leaf = plan.leaf
        prefix = plan.prefix  # the same triples, evaluated column-wise
        span = leaf.window.size
        store = leaf._store
        insert_many = store.insert_many if store is not None else None
        counters = self.compiled.counters
        boundaries = self._boundaries
        leaf_idx = self._eager_index.get(id(leaf), -1)
        suffix = self._compile_suffix(self._stages(plan.suffix))
        tuple_cls = Tuple  # hot-path constructor, bound once

        def column_phase(rows, vals, ts, pending, gate):
            k = len(rows)
            last_ts = ts[rows[-1]]
            # Leaf bookkeeping, bulk: clock fold, one charge per tuple,
            # stamp the exp column, insert the whole block.
            if last_ts > leaf.clock:
                leaf.clock = last_ts
            counters.tuples_processed += k
            if leaf_idx >= 0:
                # Minimum stamped exp = first row's (ts non-decreasing):
                # fold the leaf's boundary cache and the global gate.
                low = ts[rows[0]] + span
                if low < boundaries[leaf_idx]:
                    boundaries[leaf_idx] = low
                    if low < gate:
                        gate = low
            idx = rows
            if insert_many is not None:
                stamped = [tuple_cls(v, ts[r], ts[r] + span)
                           for r, v in zip(rows, vals)]
                insert_many(stamped)
                keep = stamped
                for op, kind, arg in prefix:
                    if not keep:
                        break
                    tail = keep[-1].ts
                    if tail > op.clock:
                        op.clock = tail
                    counters.tuples_processed += len(keep)
                    if kind == "filter":
                        mask = [arg(t.values) for t in keep]
                        idx = list(compress(idx, mask))
                        keep = list(compress(keep, mask))
                    elif kind == "map_indices":
                        keep = [t.with_values(v) for t, v in zip(
                            keep, take_columns([t.values for t in keep],
                                               arg))]
                for i, t in zip(idx, keep):
                    slot = pending[i]
                    if slot is None:
                        pending[i] = (suffix, t)
                    elif slot.__class__ is list:
                        slot.append((suffix, t))
                    else:
                        pending[i] = [slot, (suffix, t)]
            else:
                # Unmaterialized window (no store, never eager): run the
                # whole prefix over raw value columns and materialize
                # Tuples only for the rows that survive — the lazy
                # boundary the struct-of-arrays layout exists for.
                keep = vals
                for op, kind, arg in prefix:
                    if not keep:
                        break
                    tail = ts[idx[-1]]
                    if tail > op.clock:
                        op.clock = tail
                    counters.tuples_processed += len(keep)
                    if kind == "filter":
                        mask = list(map(arg, keep))
                        idx = list(compress(idx, mask))
                        keep = list(compress(keep, mask))
                    elif kind == "map_indices":
                        keep = take_columns(keep, arg)
                for i, v in zip(idx, keep):
                    t = ts[i]
                    slot = pending[i]
                    if slot is None:
                        pending[i] = (suffix, tuple_cls(v, t, t + span))
                    elif slot.__class__ is list:
                        slot.append((suffix, tuple_cls(v, t, t + span)))
                    else:
                        pending[i] = [slot, (suffix, tuple_cls(v, t, t + span))]
            return gate

        return column_phase

    # -- micro-batch loops --------------------------------------------------

    def process_batch(self, events: Sequence[Event] | ChunkTable) -> None:
        """Process a micro-batch of events with one amortized expiration
        schedule.

        The batch is implicitly split at every expiration boundary: a pass
        runs — at the clock of the event that reaches the gate, exactly as
        in tuple-at-a-time mode — whenever an event's clock reaches the
        minimum of the per-operator boundary caches.  Lazy-purge decisions
        are replayed per event, and the result view is purged once at the
        end of the batch.  Drivers that compiled column plans run the
        batch through the column loop; batches it cannot take (relation
        updates, non-monotone timestamps) and all other drivers run the
        row loop, counted in :attr:`batch_fallbacks` when that is a
        fallback rather than the driver's choice.

        ``events`` may be a decoded :class:`ChunkTable` (the shard
        worker's transport): the column loop reads it without building
        event objects; the row loop builds them once per table.
        """
        if not events:
            return
        chunk = events.__class__ is ChunkTable
        if self._col_plans:
            table = events if chunk else ChunkTable.from_events(events)
            if table is not None:
                self._process_table(table)
            else:
                self._count_fallback("relation_update")
                self._process_rows(events)
        else:
            self._process_rows(events.to_events() if chunk else events)

    def _count_fallback(self, reason: str) -> None:
        self.batch_fallbacks[reason] = self.batch_fallbacks.get(reason, 0) + 1

    def _process_rows(self, events: Sequence[Event]) -> None:
        """The row micro-batch loop (see the module docstring)."""
        if self._row_loop[1] is not None:
            self._count_fallback(self._row_loop[1])
        compiled = self.compiled
        time_domain = self._time_domain
        clock_for = self._clock_for
        lazy_check = self._lazy_check
        maybe_lazy_purge = self._maybe_lazy_purge
        metrics = self._metrics
        timed = metrics.timed
        if timed:
            metrics.timed = False
            acc = metrics.pass_acc = metrics.acc
            t0 = perf()
        get_plans = self._arrivals_b.get
        run_pass = self._run_pass
        events_processed = self._events_processed
        tuples_arrived = self._tuples_arrived
        gate = self._anchor_boundaries()
        try:
            for event in events:
                now = event.ts if time_domain else clock_for(event)
                if now < self.now:
                    raise ExecutionError(
                        f"out-of-order event: ts {now} after clock "
                        f"{self.now} (the model assumes non-decreasing "
                        "timestamps, Section 2)"
                    )
                self.now = now
                events_processed += 1
                if now >= gate:
                    gate = run_pass(now)
                if isinstance(event, Arrival):
                    tuples_arrived += 1
                    plans = get_plans(event.stream)
                    if plans is not None:
                        values = event.values
                        for fn in plans:
                            gate = fn(values, now, gate)
                elif isinstance(event, RelationUpdate):
                    self._dispatch_relation_update(event, now)
                    gate = self._anchor_boundaries()
                elif isinstance(event, Tick):
                    pass
                else:  # pragma: no cover - event model is closed
                    raise ExecutionError(
                        f"unknown event type {type(event).__name__}")
                if lazy_check:
                    maybe_lazy_purge(now)
        finally:
            self._events_processed = events_processed
            self._tuples_arrived = tuples_arrived
        if timed:
            t1 = perf()
            acc[metrics.ROWS] += t1 - t0
        # One amortized view purge per batch: timestamp purging emits no
        # output, so only its (deterministic) timing is batched.
        compiled.view.purge(self.now)
        if timed:
            acc[metrics.VIEW_PURGE] += perf() - t1
            metrics.pass_acc = None
        if events_processed - metrics.sampled_at >= self.sample_events:
            metrics.sample(self)

    def _run_pass(self, now: float) -> float:
        """One boundary-triggered expiration pass, visiting only the
        operators whose cached boundary has been reached.

        A skipped operator's cache is a sound lower bound on its true next
        expiry, so cache > now proves it has nothing to expire — visiting
        it would be a no-op (the per-tuple pass does exactly that and
        charges the no-op probe as a touch; the structural counters and
        outputs are unaffected either way).  Visited operators re-query
        their own ``next_expiry`` afterwards, which also captures state
        they created *during* expire (e.g. dup-elim promotions).
        """
        boundaries = self._boundaries
        compiled = self.compiled
        deliver = compiled.view.deliver
        subscribers = self._subscribers
        metrics = self._metrics
        acc = metrics.pass_acc
        if acc is not None:
            metrics.pass_acc = None  # one timed pass per sampled batch
            base = metrics.expire_base
            pass_start = perf()
        for i, (op, expire, stages) in enumerate(self._pass_plan):
            if boundaries[i] <= now:
                if acc is not None:
                    t0 = perf()
                    outputs = expire(now)
                    acc[base + i] += perf() - t0
                else:
                    outputs = expire(now)
                if outputs:
                    for pb, slot, idx in stages:
                        if idx >= 0:
                            low = _INF
                            for t in outputs:
                                if t.exp < low:
                                    low = t.exp
                            if low < boundaries[idx]:
                                boundaries[idx] = low
                        outputs = pb(slot, outputs, now)
                        if not outputs:
                            break
                    else:
                        deliver(outputs, now, subscribers)
                boundaries[i] = op.next_expiry(now)
        compiled.view.purge(now)
        if acc is not None:
            acc[metrics.PASS] += perf() - pass_start
        return min(boundaries, default=_INF)

    def _process_table(self, table: ChunkTable) -> None:
        """The column micro-batch loop (see the module docstring)."""
        ts = table.ts
        # Monotonicity pre-scan (C-speed pairwise compare): the row loop
        # raises at the exact offending event with exactly the preceding
        # events' effects applied, which the bulk column phase could not
        # replicate.
        if ts[0] < self.now or any(map(_gt, ts, islice(ts, 1, None))):
            self._count_fallback("non_monotone_ts")
            return self._process_rows(table.to_events())

        metrics = self._metrics
        timed = metrics.timed
        if timed:
            metrics.timed = False
            acc = metrics.pass_acc = metrics.acc
            t0 = t1 = perf()
        flags = table.arrival_flags()
        n = table.n
        run_pass = self._run_pass
        lazy_check = self._lazy_check
        maybe_lazy_purge = self._maybe_lazy_purge
        col_plans_get = self._col_plans.get
        gate = self._anchor_boundaries()
        events_processed = self._events_processed
        tuples_arrived = self._tuples_arrived
        pending: list = [None] * n
        try:
            # Column phase: bulk, per stream; arrival-order effects are
            # queued on ``pending`` instead of applied.
            for stream, rows in table.groups().items():
                plans = col_plans_get(stream)
                if plans is None:
                    continue
                vals = table.group_values(stream)
                for column_phase, slot in plans:
                    gate = column_phase(rows, vals, ts, pending, gate)
                    if timed:
                        # Chained reads: a plan's leaf + fused prefix (the
                        # first also the table set-up); the last ends the phase.
                        t = perf()
                        acc[slot] += t - t1
                        t1 = t
            if timed:
                acc[metrics.COLUMN] += t1 - t0
            # Replay phase: per event, in order, at each event's clock —
            # passes, stateful suffixes, lazy purges, delivery.  A row's
            # pending slot is a bare (suffix, tuple) pair in the common
            # one-plan case and only promotes to a list when a second plan
            # lands on it.  Counter increments stay per-row (not bulk) so
            # a mid-batch exception restores exactly the counts the row
            # loop would have.
            #
            # Fast-forward: a row with no pending work whose clock has not
            # reached the gate is observationally inert — no pass fires at
            # it, no suffix runs, nothing is delivered — so the replay
            # jumps from interesting row to interesting row (the next
            # survivor, or the first row at or past the gate, found by
            # bisecting the monotone ts column) and advances the counters
            # for each skipped span in bulk.  The bulk add lands *before*
            # the interesting row's own work, which is exactly the row
            # loop's counter state if a pass or suffix raises there.
            # Lazy-purge plans touch state at every row, so they replay
            # row by row like the row loop.
            survivors = None if lazy_check else [
                r for r, p in enumerate(pending) if p is not None]
            if survivors is None or 2 * len(survivors) >= n:
                # Dense batches (or lazy-purge plans, which touch state at
                # every row): the plain per-row replay is cheaper than
                # span bookkeeping.
                for now, flag, todo in zip(ts, flags, pending):
                    self.now = now
                    events_processed += 1
                    if flag is not None:
                        tuples_arrived += 1
                    if now >= gate:
                        gate = run_pass(now)
                    if todo is not None:
                        if todo.__class__ is tuple:
                            gate = todo[0]([todo[1]], now, gate)
                        else:
                            for suffix, t in todo:
                                gate = suffix([t], now, gate)
                    if lazy_check:
                        maybe_lazy_purge(now)
            else:
                n_survivors = len(survivors)
                sp = 0
                i = 0
                while i < n:
                    while sp < n_survivors and survivors[sp] < i:
                        sp += 1
                    j = survivors[sp] if sp < n_survivors else n
                    k = bisect_left(ts, gate, i, j)
                    if k >= n:
                        events_processed += n - i
                        tuples_arrived += (n - i) - flags[i:n].count(None)
                        break
                    if k > i:
                        events_processed += k - i
                        tuples_arrived += (k - i) - flags[i:k].count(None)
                    now = ts[k]
                    self.now = now
                    events_processed += 1
                    if flags[k] is not None:
                        tuples_arrived += 1
                    if now >= gate:
                        gate = run_pass(now)
                    todo = pending[k]
                    if todo is not None:
                        if todo.__class__ is tuple:
                            gate = todo[0]([todo[1]], now, gate)
                        else:
                            for suffix, t in todo:
                                gate = suffix([t], now, gate)
                    i = k + 1
                self.now = ts[n - 1]
        finally:
            self._events_processed = events_processed
            self._tuples_arrived = tuples_arrived
        if timed:
            t2 = perf()
            acc[metrics.REPLAY] += t2 - t1
        self.compiled.view.purge(self.now)
        if timed:
            acc[metrics.VIEW_PURGE] += perf() - t2
            metrics.pass_acc = None
        if events_processed - metrics.sampled_at >= self.sample_events:
            metrics.sample(self)

    # -- telemetry -----------------------------------------------------------

    def flush_metrics(self, elapsed: float | None = None) -> MetricsRegistry:
        """Bring the registry up to date and return it: a final sample,
        exact event / tuple totals, fallback counts and ``run_seconds``
        when given.  The one finish calls this for every driver."""
        return self._metrics.flush(self, elapsed)
