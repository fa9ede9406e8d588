"""The driver: one class, the compiled paths.

A :class:`Driver` runs one :class:`~repro.engine.strategies.CompiledQuery`:
the compiled query is the program, its dispatch tables, routes and
expiration participants resolved at compile time.  Section 2's processing
model: "Each new tuple is processed immediately by all the operators in the
query before the next tuple is processed.  Consequently, results are
produced in timestamp order."  Before dispatching each event the driver
runs an expiration pass (so the eager expiration interval equals the tuple
inter-arrival time, the setting used in Section 6.1), and every
``lazy_interval`` time units it lets lazily-maintained operators purge
their state (default: 5% of the largest window, the paper's default).
Pure time advancement without arrivals is modelled with Tick events.  That
model written down as an interpreter over the tables — what the compiled
paths are tested against — is :func:`repro.testing.reference_step`.

The tables are *static per query*, so every lookup an interpreter makes
per event is resolved once, at construction — the move query compilers
make for conjunctive queries under updates (Kara et al., arXiv:2206.09032):
generate maintenance code specialized to the query shape.  The driver
compiles two loops, one per entry point (fed one event per call, the
closure is 1.6–2.0× faster than the batch loop at batch size one, RESULTS.md
"one operator entry point"):

* **the per-tuple loop** — one fused closure, the ``process_event``
  *instance attribute* (the class defines none), so every runner's hoist
  binds straight to it.  It runs the full bottom-up expiration pass before
  every event like the reference interpreter, so answers, output streams
  and **all** counters (touches included) are byte-identical to it.
* **the batch loop** (:meth:`Driver.process_batch`) — amortizes the
  expiration pass, the result-view purge and the propagation walk over a
  batch; only the *touches*/*probes* counters may differ (see DESIGN.md):

  - A per-tuple pass at clock ``n`` emits output only when some eager
    tuple has ``exp <= n``.  The loop keeps one cached next-expiry lower
    bound per eager operator — re-anchored from ``op.next_expiry`` at batch
    entry, folded down by every tuple entering that operator, re-queried
    after its own expire — and runs a pass, at exactly the clock of the
    event that reaches the minimum, over only the operators whose cache
    was reached; the skipped ones provably have nothing to expire.
  - The view's purge emits nothing and snapshots filter by liveness, so
    it runs once per batch (and at every pass); lazy purges, a pure
    function of event clocks, are tested per event.

One batch loop
--------------

Every batch runs the one per-event loop: per event, in order, it sets the
clock, runs the gated pass, then dispatches — a relation update in place
(re-anchoring the boundary caches), an arrival from ``pending`` or through
its row arrival closure.  No batch falls back.

The only bulk work is a per-stream **column prelude**, compiled for a
stream when every dispatch plan on it is a non-port time-window leaf and
one has a fused stateless prefix (count windows, unbounded streams, shared
ports and prefix-less streams have none; :meth:`Driver.batch_loop` names
each stream's choice).  Before the loop, over that stream's rows, it stamps
``exp`` in bulk, inserts the block into an NT window store
(``insert_many``), runs the prefix column-wise and queues each survivor on
``pending`` at its row.  It hoists four effects ahead of their row, and
each commutes with everything the loop observes, relation updates
included:

1. *NT window inserts.*  A tuple stamped from a later event ``k`` has
   ``exp = ts_k + span > ts_r`` for every earlier event ``r`` (timestamps
   non-decreasing, spans positive), so no pass at ``ts_r`` pops it.
2. *Prefix charges.*  ``tuples_processed`` and the buffers'
   ``inserts``/``touches`` are order-insensitive totals; ``insert_many`` is
   contractually n× ``insert``.
3. *Stateless clock folds.*  They only ever move up, and no pass, probe or
   subscriber reads them mid-batch.
4. *Leaf-boundary folds.*  A cache lowered to a hoisted exp stays a sound
   lower bound, and so does ``_anchor_boundaries`` after a relation update:
   hoisted tuples only lower the minimum, and a pass that runs early
   expires nothing that is not due.

No prefix operator reads a relation (relation joins sit in suffixes, which
run in the loop at their rows), so an update lands between the same prefix
results either way.  Everything order-sensitive — pass scheduling,
suffixes, relation updates, lazy purges, delivery — runs in the loop, in
arrival order, against exactly the state per-event dispatch would see.  A
batch with a timestamp regression runs without its prelude: the loop
raises at the offender with exactly the preceding events applied.  Every
path evaluates the one kernel triple stored in ``DispatchPlan.prefix``.

Instrumentation
---------------

Every driver reports through :class:`~repro.engine.telemetry.DriverMetrics`:
counters, state and expiration lag exactly; clocks only on the batch after
each state sample, per phase (``phase_seconds``), per prelude plan
(``op_process_seconds``) and around the first pass.  The per-tuple closure
carries no sample check: the one feed
(:func:`~repro.engine.executor.feed_drivers`) makes it after every chunk.
"""

from __future__ import annotations

import math
from itertools import compress, count, repeat
from operator import length_hint
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
        self._compile_closures()
        self._compile_preludes()
        #: What the loops charge (see "Instrumentation").
        self._metrics = DriverMetrics(
            compiled, [plan.leaf for stream in self._preludes
                       for plan in compiled.dispatch[stream]])
        # The symbolic state-bound certificate, derived at setup so the
        # first telemetry sample finds it cached.
        attach_certificate(compiled)

    # -- public API --------------------------------------------------------

    @property
    def tuples_arrived(self) -> int:
        """Stream arrivals processed so far (the per-1000-tuples
        denominator)."""
        return self._tuples_arrived

    def subscribe(self, callback) -> None:
        """Receive the query's *output stream* (Definition 2) as
        ``callback(tuple, now)``: every real and negative tuple.  Predictable
        expirations are not signalled — each tuple carries its ``exp`` — so
        only strict non-monotonic deletions arrive as negative tuples."""
        self._subscribers.append(callback)

    def answer(self):
        """Current result multiset Q(now)."""
        return self.compiled.view.snapshot(self.now)

    def batch_loop(self) -> str:
        """Which streams get a column prelude in the one batch loop, and
        why the others take their row arrival closures — the
        ``-- columnar:`` explain footer."""
        dispatch = self.compiled.dispatch
        preludes = ", ".join(f"{stream} ({len(dispatch[stream])} plan(s))"
                             for stream in self._preludes) or "none"
        rows = ", ".join(f"{stream} ({self._prelude_reason(plans)})"
                         for stream, plans in dispatch.items()
                         if stream not in self._preludes)
        loop = f"one loop; column prelude: {preludes}"
        return f"{loop}; row arrivals: {rows}" if rows else loop

    # -- steps the compiled loops call --------------------------------------

    def _clock_for(self, event: Event) -> float:
        if self._time_domain:
            return event.ts
        # Count-based windows: the clock is the count-stream's sequence
        # number; it advances only on arrivals of that stream.
        if event.stream == self._count_stream:  # None unless an arrival
            self._seq[event.stream] = self._seq.get(event.stream, 0) + 1
        return self._seq.get(self._count_stream, 0)

    def _out_of_order(self, now: float) -> ExecutionError:
        return ExecutionError(
            f"out-of-order event: ts {now} after clock {self.now} (the "
            "model assumes non-decreasing timestamps, Section 2)")

    def _dispatch_relation_update(self, event: RelationUpdate,
                                  now: float) -> None:
        compiled = self.compiled
        relation = compiled.relations.get(event.relation)
        if relation is None:
            raise ExecutionError(
                f"relation {event.relation!r} is not referenced by the query"
            )
        insert = event.op == RelationUpdate.INSERT
        if isinstance(relation, NRR):
            # Non-retroactive: just version the table; no results change.
            (relation.insert_at if insert else relation.delete_at)(
                now, event.values)
            return
        (relation.insert if insert else relation.delete)(event.values)
        for op in compiled.relation_bindings.get(event.relation, ()):
            outputs = (op.on_relation_insert if insert
                       else op.on_relation_delete)(event.values, now)
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
            # Jump to the latest grid point at or before ``now`` (the
            # config and both windows keep the interval positive).
            self._last_purge += interval * math.floor(
                (now - self._last_purge) / interval)

    # -- closure compilation -----------------------------------------------

    def _compile_closures(self) -> None:
        """Compile the tables into this driver's row closures.  Bound
        methods are resolved *now*; closures are per driver, so two
        drivers of one compiled query share no mutable state."""
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
        :meth:`_stages`) as a closure ``(outputs, now, gate) -> gate`` over
        a non-empty list: boundary folds at eager stages (the others never
        produce pass output), ``process_batch`` stages, DELIVER."""
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
        """Compile one ``DispatchPlan`` into (per-tuple, batch) arrival
        closures.  Only the batch one threads the gate and folds into the
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
            # Inlined WindowOp arrival (clock, one charge, NT store), then
            # the fused prefix (clock + one charge per operator seen).
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
                raise driver._out_of_order(now)
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
            elif not isinstance(event, Tick):  # pragma: no cover - closed
                raise ExecutionError(
                    f"unknown event type {type(event).__name__}")
            if lazy_check:
                maybe_lazy_purge(now)

        return process_event

    def _anchor_boundaries(self) -> float:
        """Re-anchor every boundary cache on live state and return their
        minimum, the pass gate: at batch entry and after a relation update,
        whose deltas may land anywhere; in between they fold in place."""
        now = self.now
        boundaries = self._boundaries
        gate = _INF
        for i, (op, _expire, _stages) in enumerate(self._pass_plan):
            low = op.next_expiry(now)
            boundaries[i] = low
            if low < gate:
                gate = low
        return gate

    # -- column preludes -----------------------------------------------------

    def _compile_preludes(self) -> None:
        """Compile the column preludes: one column-phase closure per
        dispatch plan of every stream that gets one."""
        slots = count(DriverMetrics.PASS + 1)
        #: stream -> ((column-phase closure, DriverMetrics slot), ...)
        self._preludes: dict[str, tuple] = {
            stream: tuple((self._compile_column_plan(plan), next(slots))
                          for plan in plans)
            for stream, plans in self.compiled.dispatch.items()
            if self._prelude_reason(plans) is None}
        #: The row arrival closures a batch whose preludes ran still takes:
        #: those of the streams without one.
        self._inline = {stream: fns for stream, fns in self._arrivals_b.items()
                        if stream not in self._preludes}

    def _prelude_reason(self, plans) -> str | None:
        """Why a stream with these dispatch plans gets no column prelude
        (None when it gets one): the prelude stamps a time window's ``exp``
        column, and pays only when a plan has a fused stateless prefix."""
        if not self._time_domain:
            return "count window"
        for plan in plans:
            if isinstance(plan.leaf, PortOp):
                return "shared port"  # replays lists at recorded clocks
            if not isinstance(plan.leaf.window, TimeWindow):
                return "unbounded stream"  # window=None: no exp to stamp
        return None if any(plan.prefix for plan in plans) \
            else "no stateless prefix"

    def _compile_column_plan(self, plan):
        """One dispatch plan → its column-phase closure: over one stream's
        rows of a batch (indices, value tuples) the bulk work — stamp,
        window insert, fused prefix over whole columns — queuing
        ``(suffix, tuple)`` pairs on ``pending`` for the per-event loop."""
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
            # Leaf bookkeeping, bulk: clock fold, one charge per tuple.
            last_ts = ts[rows[-1]]
            if last_ts > leaf.clock:
                leaf.clock = last_ts
            counters.tuples_processed += len(rows)
            if leaf_idx >= 0:
                # Minimum stamped exp = first row's (ts non-decreasing):
                # fold the leaf's boundary cache and the global gate.
                low = ts[rows[0]] + span
                if low < boundaries[leaf_idx]:
                    boundaries[leaf_idx] = low
                    if low < gate:
                        gate = low
            # An NT window stores every stamped row, and its survivors
            # flow on as the stored objects; an unmaterialized one stamps
            # only the survivors — the lazy boundary the column layout
            # exists for.  Either way the prefix runs over raw values.
            stamped = None
            if insert_many is not None:
                stamped = [tuple_cls(v, ts[r], ts[r] + span)
                           for r, v in zip(rows, vals)]
                insert_many(stamped)
            idx = rows
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
                    if stamped is not None:
                        stamped = list(compress(stamped, mask))
                elif kind == "map_indices":
                    keep = take_columns(keep, arg)
                    stamped = None  # projected rows are new tuples
            if stamped is None:
                stamped = [tuple_cls(v, ts[r], ts[r] + span)
                           for r, v in zip(idx, keep)]
            for i, t in zip(idx, stamped):
                slot = pending[i]
                if slot is None:
                    pending[i] = (suffix, t)
                elif slot.__class__ is list:
                    slot.append((suffix, t))
                else:
                    pending[i] = [slot, (suffix, t)]
            return gate

        return column_phase

    # -- the batch loop --------------------------------------------------------

    def process_batch(self, events: Sequence[Event] | ChunkTable) -> None:
        """Process a micro-batch in the one batch loop (see "One batch
        loop").  ``events`` may be a decoded :class:`ChunkTable` (the shard
        worker's transport): the preludes read its columns in place, and
        the loop its rows' stand-ins — or, when a stream with rows in it
        takes its row arrival closures, its events, built once per table."""
        if not events:
            return
        metrics = self._metrics
        timed = metrics.timed
        if timed:
            metrics.timed = False
            acc = metrics.pass_acc = metrics.acc
            t0 = t1 = perf()
        table = events.__class__ is ChunkTable
        if self._time_domain:
            clocks = events.ts if table else [event.ts for event in events]
        else:  # count windows (never sharded): sequence numbers, in step
            clocks = map(self._clock_for, events)
        gate = self._anchor_boundaries()
        inline = self._arrivals_b
        pending = repeat(None)
        # Monotone batches only (timsort finds the one run in C, at a
        # fraction of a pairwise scan's cost).
        if self._preludes and clocks[0] >= self.now \
                and sorted(clocks) == clocks:
            inline = self._inline
            pending = [None] * len(clocks)
            gate = self._run_preludes(events, clocks, pending, gate,
                                      acc if timed else None)
            if timed:
                t1 = perf()
                acc[metrics.COLUMN] += t1 - t0
        if table:
            events = (events.stand_ins if inline.keys().isdisjoint(
                events.groups()) else events.to_events())
        run_pass = self._run_pass
        maybe_lazy_purge = self._maybe_lazy_purge
        # ``_maybe_lazy_purge``'s own test, on locals: it is called only
        # when a purge (or the anchoring first call) is due.
        lazy_check = self._lazy_check
        interval = self._lazy_interval
        last_purge = -_INF if self._last_purge is None else self._last_purge
        # Rows are counted in bulk: ``rows`` keeps what a raise left over.
        rows = iter(events)
        events_processed = self._events_processed + len(events)
        tuples_arrived = self._tuples_arrived
        try:
            for now, event, todo in zip(clocks, rows, pending):
                if now < self.now:
                    events_processed -= 1  # the offender is not entered
                    raise self._out_of_order(now)
                self.now = now
                if now >= gate:
                    gate = run_pass(now)
                if event.__class__ is Arrival:
                    tuples_arrived += 1
                    if todo is not None:
                        # A prelude survivor: a bare (suffix, tuple) pair in
                        # the common one-plan case, a list when a second
                        # plan landed on the row.
                        if todo.__class__ is tuple:
                            gate = todo[0]([todo[1]], now, gate)
                        else:
                            for suffix, t in todo:
                                gate = suffix([t], now, gate)
                    elif event.stream in inline:
                        values = event.values
                        for fn in inline[event.stream]:
                            gate = fn(values, now, gate)
                elif event.__class__ is RelationUpdate:
                    self._dispatch_relation_update(event, now)
                    gate = self._anchor_boundaries()
                elif event.__class__ is not Tick:  # pragma: no cover
                    raise ExecutionError(   # the event model is closed
                        f"unknown event type {type(event).__name__}")
                if lazy_check and now - last_purge >= interval:
                    maybe_lazy_purge(now)
                    last_purge = self._last_purge
        finally:
            self._events_processed = events_processed - length_hint(rows)
            self._tuples_arrived = tuples_arrived
        if timed:
            t2 = perf()
            acc[metrics.ROWS] += t2 - t1
        # One amortized view purge per batch: timestamp purging emits no
        # output, so only its (deterministic) timing is batched.
        self.compiled.view.purge(self.now)
        if timed:
            acc[metrics.VIEW_PURGE] += perf() - t2
            metrics.pass_acc = None
        if self._events_processed - metrics.sampled_at >= self.sample_events:
            metrics.sample(self)

    def _run_preludes(self, events, clocks: list, pending: list, gate: float,
                      acc: list | None) -> float:
        """Run every column prelude over its stream's rows of a monotone
        batch, queuing survivors on ``pending``; return the folded gate.
        An event list is grouped by ``list.index`` scans (C speed)."""
        if acc is not None:
            t1 = perf()
        table = events.__class__ is ChunkTable
        if table:
            groups = events.groups()
        else:
            streams = [event.stream for event in events]
            index = streams.index
            groups = {}
            for stream in self._preludes:
                r = -1
                rows = [r := index(stream, r + 1)
                        for _ in range(streams.count(stream))]
                if rows:
                    groups[stream] = rows
        for stream, plans in self._preludes.items():
            rows = groups.get(stream)
            if rows is None:
                continue
            vals = (events.group_values(stream) if table
                    else [events[r].values for r in rows])
            for column_phase, slot in plans:
                gate = column_phase(rows, vals, clocks, pending, gate)
                if acc is not None:
                    # Chained reads: a plan's leaf and fused prefix (the
                    # first one also the batch's grouping).
                    t = perf()
                    acc[slot] += t - t1
                    t1 = t
        return gate

    def _run_pass(self, now: float) -> float:
        """One boundary-triggered expiration pass, visiting only the
        operators whose cached boundary has been reached: a skipped cache
        is a sound lower bound, so cache > now proves the visit a no-op
        (the per-tuple pass makes it, charging a touch).  Visited operators
        re-query ``next_expiry``, which also captures state they created
        *during* expire (e.g. dup-elim promotions)."""
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

    # -- telemetry -----------------------------------------------------------

    def flush_metrics(self, elapsed: float | None = None) -> MetricsRegistry:
        """Bring the registry up to date and return it: a final sample,
        exact event / tuple totals and ``run_seconds`` when given.  The one
        finish calls this for every driver."""
        return self._metrics.flush(self, elapsed)
