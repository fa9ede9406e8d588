"""Run arguments, event chunking and the two run results.

Section 2's processing model is one loop per query: "Each new tuple is
processed immediately by all the operators in the query before the next
tuple is processed."  That loop is compiled into a
:class:`~repro.engine.driver.Driver`, and a query runs itself:
:meth:`ContinuousQuery.run <repro.engine.query.ContinuousQuery.run>` feeds
its driver per tuple or in micro-batches, or hands the plan to the sharded
runtime (:func:`repro.engine.shard._run_replicas`) and falls back onto its
own driver when the plan cannot shard; :meth:`QueryGroup.run
<repro.engine.multi.QueryGroup.run>` does the same for a member set.  This
module holds what both share: the argument check, the chunker, and one
result type per query (:class:`RunResult`) and one per group
(:class:`GroupRunResult`).

Both results carry the sharding surface — ``shards``, ``backend``,
``fallback_reason``, ``partitionability``, ``shard_counters``,
``per_shard_arrivals`` and ``state_size``.  An ordinary or fallback run
fills it with its unsharded values: one shard, the ``"inline"`` backend,
the pipeline's own counters, arrivals and state.
"""

from __future__ import annotations

from collections import Counter as Multiset
from itertools import islice
from typing import Iterable, Iterator

from ..errors import ConfigError
from ..streams.stream import Event
from .telemetry import MetricsRegistry

#: ``shard_backend`` values (see :mod:`repro.engine.shard`).
SHARD_BACKENDS = ("serial", "process")


def check_run_args(batch: int | None = None, shards: int | None = None,
                   shard_backend: str = "process") -> None:
    """The one validation every run entry point shares (queries, groups
    and their sharded forms): ``batch`` and ``shards`` are None or >= 1 and
    the backend is known, whether or not this run shards."""
    if batch is not None and batch < 1:
        raise ConfigError(
            f"batch must be >= 1 (None or 1 is tuple-at-a-time), got {batch}")
    if shards is not None and shards < 1:
        raise ConfigError(
            f"shards must be >= 1 (None or 1 is unsharded), got {shards}")
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
                 tuples_arrived: int, replicas, partitionability,
                 fallback_reason: str | None):
        self.elapsed = elapsed
        self.events_processed = events_processed
        self.tuples_arrived = tuples_arrived
        self._replicas = replicas
        #: The plan's (or member set's) sharding verdict when ``shards > 1``
        #: was asked for, else None.
        self.partitionability = partitionability
        #: Why a ``shards > 1`` run ran unsharded; None otherwise.
        self.fallback_reason = fallback_reason
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
                         partitionability, None if partitionability is None
                         else partitionability.reason)
        #: The query's :class:`~repro.engine.driver.Driver`.
        self.executor = query.executor
        self.view = compiled.view
        #: The pipeline's :class:`~repro.analysis.bounds.StateCertificate`
        #: (symbolic per-operator state bounds + per-unit-time cost);
        #: cross-validated against observed counters at drain time when the
        #: run was ``checked=True``.
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
    the shard sums), and in shared mode each producer's once under
    ``producer=name`` (shared work is charged once per group, like
    :meth:`shared_touches`).
    """

    def __init__(self, group, elapsed: float, events_processed: int,
                 tuples_arrived: int, *, partitionability=None,
                 fallback_reason: str | None = None, replicas=None):
        super().__init__(elapsed, events_processed, tuples_arrived,
                         replicas, partitionability, fallback_reason)
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

        In shared mode these cover the member's *residual* pipeline only;
        shared subtree work is charged once under :meth:`shared_touches`.
        For every fused member, independent-execution touches equal its
        residual touches plus its producers' touches exactly.
        """
        return {name: counters.touches
                for name, counters in self.member_counters.items()}

    def shared_touches(self) -> int:
        """State touches charged to shared producers (once per group; zero
        for an independent or sharded group)."""
        return self.group.shared_counters().touches

    def total_touches(self) -> int:
        """All deterministic state touches: member residuals + shared."""
        return sum(self.touches().values()) + self.shared_touches()

    def __repr__(self) -> str:
        return (f"GroupRunResult(queries={len(self._names)}, "
                f"{self._describe()})")
