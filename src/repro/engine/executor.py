"""Run arguments, the one feed and finish, and the two run results.

Section 2's processing model is one loop per query: "Each new tuple is
processed immediately by all the operators in the query before the next
tuple is processed."  That loop is compiled into a
:class:`~repro.engine.driver.Driver`, and every runtime is a set of
drivers — a query (a group of one), a
:class:`~repro.engine.multi.QueryGroup` and its shared producers, a shard
replica — fed by :func:`feed_drivers` and finished by
:func:`finish_drivers`.  :func:`run_drivers` is the one run entry of
queries and groups: the sharded runtime
(:func:`repro.engine.shard._run_replicas`), or the feed chunk by chunk,
then the finish.  Its results are :class:`RunResult` per query and
:class:`GroupRunResult` per group.

Both results carry the sharding surface — ``shards``, ``backend``,
``fallback_reason``, ``partitionability``, ``shard_counters``,
``per_shard_arrivals`` and ``state_size``.  An ordinary or fallback run
fills it with its unsharded values: one shard, the ``"inline"`` backend,
the pipeline's own counters, arrivals and state.
"""

from __future__ import annotations

from collections import Counter as Multiset
from itertools import islice
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import ConfigError, ExecutionError
from ..streams.stream import Event
from .driver import Driver
from .telemetry import MetricsRegistry

#: ``shard_backend`` values (see :mod:`repro.engine.shard`).
SHARD_BACKENDS = ("serial", "process")


def check_run_args(batch: int | None = None, shards: int | None = None,
                   shard_backend: str = "process") -> None:
    """The one validation every run entry point shares (queries, groups
    and their sharded forms): ``batch`` and ``shards`` are None or an int
    >= 1 and the backend is known, whether or not this run shards."""
    for name, value, meaning in (("batch", batch, "tuple-at-a-time"),
                                 ("shards", shards, "unsharded")):
        if value is not None and (not isinstance(value, int) or value < 1):
            raise ConfigError(f"{name} must be >= 1 and an int (None or 1 "
                              f"is {meaning}), got {value!r}")
    if shard_backend not in SHARD_BACKENDS:
        raise ConfigError(
            f"unknown shard backend {shard_backend!r} "
            f"(valid: {SHARD_BACKENDS})")


def _chunked(events: Iterable[Event], size: int) -> Iterator[list[Event]]:
    """``events`` in lists of at most ``size``, the last one shorter."""
    if type(events) is list:
        # Traces usually arrive as lists already: slice directly instead of
        # re-materializing every chunk through an iterator + islice copy.
        for start in range(0, len(events), size):
            yield events[start:start + size]
        return
    iterator = iter(events)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


def feed_drivers(members: Sequence[Driver], chunk: Sequence[Event],
                 batched: bool, producers: Sequence = (),
                 on_event: Callable[[Event], None] | None = None) -> None:
    """Feed one chunk to a set of drivers, the shared producers
    (:class:`~repro.engine.sharing.SharedProducer`) ahead of the members:
    batched, driver by driver through ``process_batch``; per tuple, event
    by event in lockstep through their closures, so a callback two members
    share sees one interleaving.  ``on_event(event)`` follows each event
    per tuple, the chunk batched.  Every driver fed through its closure
    then takes the sample check with the chunk's wall time (the batch loop
    makes its own).
    """
    start = perf_counter()
    if batched:
        for producer in producers:
            producer.run(chunk)
        for driver in members:
            driver.process_batch(chunk)
        if on_event is not None:
            for event in chunk:
                on_event(event)
        blocked = ()
    else:
        for producer in producers:
            producer.begin()
        steps = ([producer.step for producer in producers]
                 + [driver.process_event for driver in members])
        if on_event is not None:
            steps.append(on_event)
        for event in chunk:
            for step in steps:
                step(event)
        blocked = [producer.driver for producer in producers] + members
    seconds = perf_counter() - start
    for driver in blocked:
        metrics = driver._metrics
        if metrics.timed:
            metrics.timed = False
            metrics.acc[metrics.PER_TUPLE] += seconds
        if driver._events_processed - metrics.sampled_at \
                >= driver.sample_events:
            metrics.sample(driver)


def finish_drivers(drivers: Sequence[Driver],
                   elapsed: float | None = None) -> None:
    """Finish every driver — member, producer or shard replica — the same
    way once its events are exhausted: the metrics flush, with
    ``run_seconds`` when ``elapsed`` is given."""
    for driver in drivers:
        driver.flush_metrics(elapsed)


def run_drivers(members: list[Driver], events: Iterable[Event], *,
                batch: int | None, shards: int | None, shard_backend: str,
                entries: Sequence[tuple] = (), part=None,
                producers: Sequence = (),
                on_event: Callable[[Event], None] | None = None) -> tuple:
    """The one run entry of queries and groups: ``(elapsed, events,
    arrivals, replicas)`` of one pass over ``events``.  ``part``, the
    sharding verdict of ``entries`` (the members' ``(name, plan,
    config)``), is given when ``shards > 1`` may shard: a shardable one
    runs fresh key-routed replicas (else ``replicas`` is None), and every
    other run feeds ``members`` and ``producers``, then finishes them.
    The caller has passed its arguments through :func:`check_run_args`."""
    if part is not None:
        if on_event is not None:
            raise ExecutionError(
                "on_event callbacks observe per-event driver state and are "
                "not supported with sharded execution")
        if part.shardable and any(d._events_processed for d in members):
            raise ExecutionError(
                "sharded execution needs a fresh pipeline; this one has "
                "already processed events")
        from .shard import _run_replicas  # shard imports this module

        replicas = _run_replicas(
            entries, part, events, shards=shards, backend=shard_backend,
            batch=batch, subscribers=[d._subscribers for d in members])
        if replicas is not None:
            return (replicas.elapsed, replicas.events_processed,
                    replicas.tuples_arrived, replicas)
    drivers = members + [producer.driver for producer in producers]
    if not drivers:
        return 0.0, 0, 0, None
    lead = drivers[0]  # every driver sees every event
    before = lead._events_processed, lead._tuples_arrived
    batched = batch is not None and batch > 1
    # Per tuple, chunks of one sample period.
    size = batch if batched else min([d.sample_events for d in drivers])
    start = perf_counter()
    for chunk in _chunked(events, size):
        feed_drivers(members, chunk, batched, producers, on_event)
    elapsed = perf_counter() - start
    finish_drivers(drivers, elapsed)
    return (elapsed, lead._events_processed - before[0],
            lead._tuples_arrived - before[1], None)


class _Run:
    """What both results report beside answers and counters: wall time,
    what was consumed, and how the run was sharded.

    ``events_processed`` counts *all* engine events (arrivals, relation
    updates and ticks) and is kept for diagnostics; ``tuples_arrived``
    counts stream arrivals only, which is the denominator of the paper's
    per-1000-*tuples* metric (Section 6.1 reports execution time per 1000
    tuples, not per 1000 timeline events).  ``replicas`` is the sharded
    runtime's report (:class:`~repro.engine.shard._ReplicaRun`), None when
    the run was ordinary or fell back.
    """

    def __init__(self, elapsed: float, events_processed: int,
                 tuples_arrived: int, replicas, partitionability):
        self.elapsed = elapsed
        self.events_processed = events_processed
        self.tuples_arrived = tuples_arrived
        self._replicas = replicas
        #: The plan's (or member set's) sharding verdict when ``shards > 1``
        #: was asked for, else None.
        self.partitionability = partitionability
        #: Why a ``shards > 1`` run ran unsharded; None otherwise.
        self.fallback_reason = (None if partitionability is None
                                else partitionability.reason)
        if replicas is None:
            self.shards, self.backend = 1, "inline"
            self.per_shard_arrivals = [tuples_arrived]
        else:
            self.shards = len(replicas.finals)
            self.backend = replicas.backend
            self.per_shard_arrivals = list(replicas.router.per_shard_arrivals)

    def time_per_1000(self) -> float:
        """Average execution time per 1000 stream *tuples* — the paper's
        metric.  Tick and RelationUpdate events drive the run but are not
        tuples, so they do not inflate the denominator."""
        if not self.tuples_arrived:
            return 0.0
        return 1000.0 * self.elapsed / self.tuples_arrived

    def _describe(self) -> str:
        note = (f", fallback={self.fallback_reason!r}"
                if self.fallback_reason else "")
        return (f"events={self.events_processed}, "
                f"tuples={self.tuples_arrived}, "
                f"elapsed={self.elapsed:.3f}s, shards={self.shards}, "
                f"backend={self.backend!r}{note}")


class RunResult(_Run):
    """Outcome of a query's run: answer, counters, metrics, wall time.

    A sharded run sums its replicas: ``counters`` and ``state_size`` are
    the totals, ``shard_counters`` the per-shard snapshots (the
    decomposition the equivalence tests check), and ``metrics`` the merged
    registry — every replica's snapshot folded in twice, under ``shard=i``
    labels and into the unlabeled totals, so total = Σ shards per (name,
    label set) — with ``shard_metrics`` the per-shard registries.
    """

    def __init__(self, query, elapsed: float, events_processed: int,
                 tuples_arrived: int, *, partitionability=None,
                 replicas=None):
        compiled = query.compiled
        super().__init__(elapsed, events_processed, tuples_arrived, replicas,
                         partitionability)
        #: The query's :class:`~repro.engine.driver.Driver`.
        self.executor = query.executor
        self.view = compiled.view
        #: The pipeline's :class:`~repro.analysis.bounds.StateCertificate`
        #: (symbolic per-operator state bounds + per-unit-time cost).
        self.certificate = compiled.certificate
        if replicas is None:
            self.counters = compiled.counters
            self.metrics: MetricsRegistry = compiled.metrics
            self.shard_metrics = [self.metrics]
            self.shard_counters = [self.counters.snapshot()]
            self.state_size = compiled.state_size()
        else:
            finals = replicas.member(0)
            self.counters = replicas.counters(0)
            self.metrics, self.shard_metrics = replicas.merged_metrics([{}])
            self.shard_counters = [final.counters for final in finals]
            self.state_size = sum(final.state_size for final in finals)

    def answer(self) -> Multiset:
        """The live result multiset Q(now) at the end of the run; sharded,
        the sum of the shard views' snapshots (every result lives in
        exactly one shard)."""
        if self._replicas is not None:
            return self._replicas.answer(0)
        return self.view.snapshot(self.executor.now)

    @property
    def touches(self) -> int:
        return self.counters.touches

    def touches_per_tuple(self) -> float:
        """Deterministic state touches per stream tuple (same denominator
        as :meth:`time_per_1000`)."""
        if not self.tuples_arrived:
            return 0.0
        return self.counters.touches / self.tuples_arrived

    def __repr__(self) -> str:
        return f"RunResult({self._describe()}, touches={self.touches})"


class GroupRunResult(_Run):
    """Aggregate outcome of a group run.

    ``member_counters`` maps each query to its counters (sharded: the sum
    over its replicas) and ``shard_counters`` holds one ``{query:
    snapshot}`` dict per shard.  ``metrics`` is the group-wide merged
    registry: every member pipeline's registry under a ``query=name``
    label (sharded: plus ``shard=i``; the unlabeled-per-query series are
    the shard sums), and unsharded each producer's once under
    ``producer=name`` (shared work is charged once per group, like
    :meth:`shared_touches`).  A sharded run's replicas compile every
    member's registered, uncut plan: it has no producers.
    """

    def __init__(self, group, elapsed: float, events_processed: int,
                 tuples_arrived: int, *, partitionability=None,
                 replicas=None):
        super().__init__(elapsed, events_processed, tuples_arrived,
                         replicas, partitionability)
        self.group = group
        names = group.names()
        self._names = names
        if replicas is None:
            self.member_counters = {name: group[name].counters
                                    for name in names}
            self.shard_counters = [{name: counters.snapshot() for name,
                                    counters in self.member_counters.items()}]
            self.state_size = group.total_state_size()
            self.metrics = MetricsRegistry()
            for name in names:
                self.metrics.merge(group[name].compiled.metrics,
                                   {"query": name})
            for producer in group.shared_producers():
                self.metrics.merge(producer.compiled.metrics,
                                   {"producer": producer.name})
        else:
            self.member_counters = {name: replicas.counters(i)
                                    for i, name in enumerate(names)}
            self.shard_counters = [
                {name: final.counters for name, final in zip(names, shard)}
                for shard in replicas.finals]
            self.state_size = sum(final.state_size
                                  for shard in replicas.finals
                                  for final in shard)
            self.metrics, _per_shard = replicas.merged_metrics(
                [{"query": name} for name in names])

    def answer(self, name: str) -> Multiset:
        if self._replicas is not None:
            return self._replicas.answer(self._names.index(name))
        return self.group[name].answer()

    def touches(self) -> dict[str, int]:
        """Per-query deterministic state-touch totals.

        These cover the member's *residual* pipeline only; shared subtree
        work is charged once under :meth:`shared_touches`.  For every
        fused member, the touches of the query run alone equal its
        residual touches plus its producers' touches exactly.
        """
        return {name: counters.touches
                for name, counters in self.member_counters.items()}

    def shared_touches(self) -> int:
        """State touches charged to shared producers (once per group; zero
        without producers and for a sharded run)."""
        return self.group.shared_counters().touches

    def total_touches(self) -> int:
        """All deterministic state touches: member residuals + shared."""
        return sum(self.touches().values()) + self.shared_touches()

    def __repr__(self) -> str:
        return (f"GroupRunResult(queries={len(self._names)}, "
                f"{self._describe()})")
