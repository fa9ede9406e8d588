"""Key-sharded parallel execution: replicas, router, merger, two backends.

The partitionability analysis (:mod:`repro.core.sharding`) proves that for
keyed plans, routing every arrival by a hash of its shard key splits the
workload into ``k`` *independent* copies of the compiled pipelines: no
stored tuple in shard ``i`` can ever join with, cancel, or deduplicate
against a tuple in shard ``j``.  That proof is per key and the paper's
update-pattern argument is per pipeline; neither cares how many pipelines
a shard holds.  So the unit of sharded execution is a **replica** — one
:class:`~repro.engine.driver.Driver` per member of ``members = [(name,
plan, config), …]``, fed and finished by the one feed and finish of
:mod:`repro.engine.executor` — and a single query (one member) and a
:class:`~repro.engine.multi.QueryGroup` (n members, each compiled from its
registered plan: producers are not replicated) run
through the same router, backends, worker protocol, transport and parent
loop (:func:`_run_replicas`), which the one run entry
(:func:`~repro.engine.executor.run_drivers`) calls; the results read the
totals off the returned :class:`_ReplicaRun`.

* :class:`ShardRouter` — assigns each :class:`Arrival` to
  ``stable_hash(key) % k``.  The hash is :func:`zlib.crc32` over ``repr``
  of the key, *not* Python's ``hash()``, which is seed-randomized across
  processes and would break worker/parent agreement and run-to-run
  determinism.  A group routes once, by its members' combined keys.
* **Tick broadcast** — every shard sees the *full* global event timeline:
  an arrival routed elsewhere is demoted to a :class:`Tick` carrying the
  same timestamp.  This keeps all shard clocks in lockstep with the
  unsharded executor, so eager-expiration passes, negative-tuple emission
  times, and the lazy-purge grid (anchored at the first event's clock) fire
  at exactly the clocks they would unsharded.
* :class:`_Merger` — one per member with subscribers: merges that member's
  per-shard output streams deterministically by ``(now, shard, shard-local
  sequence)``.  Event-clock order is globally correct; *within* one instant
  the canonical shard-major order replaces the unsharded emission
  interleaving, and the per-instant output multiset is identical to
  unsharded execution (DESIGN.md gives the argument; the hypothesis suite
  in ``tests/test_sharded.py`` checks it).  Streaming is preserved by a
  holdback rule: after each routed chunk, every output with ``now``
  strictly below the chunk's last timestamp is final and flushed — making
  the merged stream invariant under chunk size and backend.
* Two backends over one :class:`_Replica` class — :class:`_SerialShards`
  runs the ``k`` replicas in-process (the exactness reference: counter
  decomposition, zero IPC), and :class:`_ProcessShards` forks one worker
  per shard, fed over a fused shared-memory transport with a pickle-pipe
  fallback.  Workers are built by *fork inheritance* — plans may close
  over lambdas, which never need to be pickled because the 'fork' start
  method copies them into the child.

Exactness vs. unsharded execution, per member (checked by tests, argued in
DESIGN.md): answers, per-instant output multisets, and view snapshots are
identical; counters decompose exactly (unsharded total = Σ shard totals)
for the structural counters (inserts, deletes, expirations, probes,
tuples_processed, negatives_processed, results_produced).  ``touches`` also
decomposes exactly in tuple-at-a-time mode under NT and DIRECT; under UPA
the partitioned buffer's ``log2(partition length)`` bisect charge depends
on per-shard occupancy, and in micro-batch mode the per-shard expiration
*boundaries* differ from the global one, so scan charges shift — the
speedup measured by benchmark E13 is exactly this removed work.

Member sets the analysis rejects (count windows, relation joins, shared
scans, keyless aggregation, two members keying one stream differently)
and ``shards=1`` **fall back** to ordinary unsharded
execution; the returned result records the reason, and ``explain()``
carries the same note.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from collections import Counter as Multiset
from typing import Callable, Iterable, NamedTuple, Sequence

from ..core.metrics import Counters
from ..core.plan import LogicalNode
from ..core.sharding import (
    Partitionability,
    StreamShardKey,
    analyze_partitionability,
)
from ..core.tuples import Tuple
from ..errors import ExecutionError
from ..streams.stream import Arrival, Event, RelationUpdate, Tick
from .columnar import ChunkTable, decode_routed, encode_routed, stable_hash
from .driver import Driver
from .executor import (
    SHARD_BACKENDS,
    _chunked,
    check_run_args,
    feed_drivers,
    finish_drivers,
)
from .strategies import ExecutionConfig, compile_plan
from .telemetry import MetricsRegistry

#: Events shipped per backend step when no micro-batch size is given.
DEFAULT_CHUNK = 256

SERIAL, PROCESS = SHARD_BACKENDS

#: One replica member: ``(name, plan, config or None for the default)``.
Member = tuple[str, LogicalNode, ExecutionConfig | None]


def _compile_replica(members: Sequence[Member]) -> list[Driver]:
    """Compile one shard's copy of the member set straight to drivers
    (each arms its certificate as a query's does); the parent loop times
    the run."""
    return [Driver(compile_plan(
                plan, config if config is not None else ExecutionConfig()))
            for _name, plan, config in members]


class ShardRouter:
    """Routes events to shards by key hash; foreign arrivals become ticks."""

    def __init__(self, keys: dict[str, StreamShardKey], n_shards: int):
        if n_shards < 1:
            raise ExecutionError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        #: stream -> key column index (None = hash the full value tuple).
        self._index: dict[str, int | None] = {
            name: sk.index for name, sk in keys.items()
        }
        self.per_shard_arrivals = [0] * n_shards
        self.broadcasts = 0

    def shard_of(self, event: Event) -> int | None:
        """Shard index for an arrival; None for broadcast events.

        Streams the plan does not reference route by their full value tuple
        (like analysis-free streams — any placement is correct, and the
        unsharded executor ignores them identically)."""
        if isinstance(event, Arrival):
            index = self._index.get(event.stream)
            key = event.values if index is None else event.values[index]
            return stable_hash(key) % self.n_shards
        return None

    def route_chunk(self, chunk: Sequence[Event]) -> list[list[Event]]:
        """Split one global chunk into per-shard chunks of equal length.

        Every shard receives every timeline position: its own arrivals
        verbatim, everyone else's as a :class:`Tick` at the same timestamp
        (clock-lockstep; see the module docstring).  Ticks and relation
        updates broadcast to all shards.
        """
        per: list[list[Event]] = [[] for _ in range(self.n_shards)]
        per_shard_arrivals = self.per_shard_arrivals
        for event in chunk:
            target = self.shard_of(event)
            if target is None:
                self.broadcasts += 1
                for shard in per:
                    shard.append(event)
            else:
                per_shard_arrivals[target] += 1
                tick = Tick(event.ts)
                for i, shard in enumerate(per):
                    shard.append(event if i == target else tick)
        return per


# -- output collection and deterministic merge --------------------------------


class _ShardCollector:
    """Subscriber that tags a shard's output stream with local sequence
    numbers (the within-shard order is exactly the unsharded emission order
    restricted to that shard's tuples)."""

    __slots__ = ("items", "_seq")

    def __init__(self) -> None:
        self.items: list[tuple[float, int, Tuple]] = []
        self._seq = 0

    def __call__(self, t: Tuple, now: float) -> None:
        self.items.append((now, self._seq, t))
        self._seq += 1

    def drain(self) -> list[tuple[float, int, Tuple]]:
        items = self.items
        self.items = []
        return items


class _Merger:
    """Deterministic merge of per-shard output streams.

    Delivery order is ``(now, shard, local sequence)``: globally ordered by
    event clock, canonically shard-major within an instant.  The holdback
    flush keeps the merge streaming *and* chunk-size-invariant: an output at
    clock ``c`` is final once every shard's clock has passed ``c``, which is
    guaranteed after processing a chunk whose last event has ``ts > c``
    (tick broadcast keeps all shard clocks equal to the global clock).
    """

    def __init__(self, subscribers: Sequence[Callable[[Tuple, float], None]]):
        self._subscribers = list(subscribers)
        self._pending: list[tuple[float, int, int, Tuple]] = []

    @property
    def active(self) -> bool:
        return bool(self._subscribers)

    def add(self, shard: int, items: Iterable[tuple[float, int, Tuple]]) -> None:
        if not self._subscribers:
            return
        self._pending.extend(
            (now, shard, seq, t) for now, seq, t in items
        )

    def flush_below(self, boundary: float) -> None:
        """Deliver every pending output with ``now`` strictly below
        ``boundary`` (outputs at the boundary instant may still gain
        same-instant siblings from later events at the same timestamp)."""
        if not self._pending:
            return
        self._pending.sort()
        cut = 0
        for record in self._pending:
            if record[0] < boundary:
                cut += 1
            else:
                break
        if cut:
            self._deliver(self._pending[:cut])
            self._pending = self._pending[cut:]

    def finish(self) -> None:
        self._pending.sort()
        self._deliver(self._pending)
        self._pending = []

    def _deliver(self, records) -> None:
        subscribers = self._subscribers
        for now, _shard, _seq, t in records:
            for subscriber in subscribers:
                subscriber(t, now)


# -- compact IPC encodings -----------------------------------------------------
#
# Tuple is an immutable __slots__ class whose __setattr__ raises, so default
# pickling (which restores slots via setattr) cannot round-trip it; events
# carry little data anyway.  Plain tuples keep messages small and fast.


def _encode_event(event: Event):
    if isinstance(event, Arrival):
        return ("a", event.ts, event.stream, event.values)
    if isinstance(event, Tick):
        return ("t", event.ts)
    if isinstance(event, RelationUpdate):
        return ("r", event.ts, event.relation, event.op, event.values)
    raise ExecutionError(f"unknown event type {type(event).__name__}")


def _decode_event(record) -> Event:
    tag = record[0]
    if tag == "a":
        return Arrival(record[1], record[2], record[3])
    if tag == "t":
        return Tick(record[1])
    return RelationUpdate(record[1], record[2], record[3], record[4])


def _encode_outputs(items: list[tuple[float, int, Tuple]]):
    return [(now, seq, t.values, t.ts, t.exp, t.sign)
            for now, seq, t in items]


def _decode_outputs(payload) -> list[tuple[float, int, Tuple]]:
    return [(now, seq, Tuple(values, ts, exp, sign))
            for now, seq, values, ts, exp, sign in payload]


class _ShardFinal(NamedTuple):
    """End-of-run report of one member in one shard (plain data: the
    process backend ships it over the pipe as is)."""

    answer: Multiset
    counters: dict
    state_size: int
    #: The member's metrics registry snapshot records.
    metrics: list


# -- the replica and the two backends -------------------------------------------


class _Replica:
    """One shard's copy of the member set, driven chunk by chunk.

    Both backends run this class — ``k`` in-process, or one per forked
    worker.  Members are independent pipelines: each sees the whole chunk.
    ``collect[i]`` says whether member ``i``'s output stream is wanted (it
    has subscribers); the others are never built into records.
    """

    def __init__(self, members: Sequence[Member], batch: int | None,
                 collect: Sequence[bool]):
        self._batched = batch is not None and batch > 1
        self.drivers = _compile_replica(members)
        self._collectors = [_ShardCollector() for _ in self.drivers]
        for driver, collector, wanted in zip(
                self.drivers, self._collectors, collect):
            if wanted:
                driver.subscribe(collector)

    def feed(self, chunk: Sequence[Event] | ChunkTable
             ) -> list[list[tuple[float, int, Tuple]]]:
        """One routed chunk — events, or a decoded table every member reads
        in place — through the one feed; per-member tagged outputs."""
        if not self._batched and chunk.__class__ is ChunkTable:
            chunk = chunk.to_events()
        feed_drivers(self.drivers, chunk, self._batched)
        return [collector.drain() for collector in self._collectors]

    def finish(self) -> list[_ShardFinal]:
        """The one finish, then each member's report as plain data."""
        finish_drivers(self.drivers)
        return [_ShardFinal(driver.answer(),
                            driver.compiled.counters.snapshot(),
                            driver.compiled.state_size(),
                            driver.compiled.metrics.snapshot())
                for driver in self.drivers]


class _SerialShards:
    """k in-process replicas fed in shard order.

    The reference backend: no IPC, exact per-shard counters, and the
    driver objects stay inspectable after the run (tests read the shard
    views directly)."""

    def __init__(self, members: Sequence[Member], n_shards: int,
                 batch: int | None, collect: Sequence[bool]):
        self.replicas = [_Replica(members, batch, collect)
                         for _ in range(n_shards)]

    def feed_chunk(self, chunk: Sequence[Event], router: "ShardRouter"):
        """Outputs of one global chunk, ``[shard][member]``."""
        return [replica.feed(events) for replica, events in zip(
            self.replicas, router.route_chunk(chunk))]

    def finish(self) -> list[list[_ShardFinal]]:
        return [replica.finish() for replica in self.replicas]


#: Capacity of the pool's reusable shared-memory segment (1 MiB holds
#: thousands of DEFAULT_CHUNK-sized rows; oversize chunks fall back to the
#: pickle pipe per chunk, so the bound is a fast path, not a limit).
_SHM_CAPACITY = 1 << 20


class _ShmArena:
    """The reusable shared-memory segment of the zero-pickle chunk transport.

    Created by the parent *before* forking so every worker inherits the
    mapping directly — no name attach, no per-chunk allocation.  The fused
    routed transport writes ONE payload per global chunk that every worker
    reads, and the protocol is synchronous per chunk (the parent never
    overwrites the segment until every worker's reply for the previous
    chunk arrived, and workers finish their lazy column decodes before
    replying), so one segment serves the whole pool for the whole run.

    Cleanup is defensive in depth: ``close()`` runs on the normal finish
    path, on every pool abort, and from an ``atexit`` hook — PID-guarded,
    because forked workers inherit the parent's atexit registrations and
    must never unlink a segment they do not own.
    """

    def __init__(self) -> None:
        from multiprocessing import shared_memory
        self._pid = os.getpid()
        self._closed = False
        self.segment = shared_memory.SharedMemory(
            create=True, size=_SHM_CAPACITY)
        atexit.register(self.close)

    def close(self) -> None:
        """Close and unlink the segment exactly once, creator-only."""
        if self._closed or os.getpid() != self._pid:
            return
        self._closed = True
        try:
            self.segment.close()
        except (BufferError, OSError):  # pragma: no cover - defensive
            pass
        try:
            self.segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


def _shard_worker_main(conn, members: Sequence[Member], batch: int | None,
                       collect: Sequence[bool], shm=None) -> None:
    """Worker loop for one forked shard process: one replica, one pipe.

    Built from fork-inherited arguments — the plans (which may close over
    lambdas in predicates) are never pickled.  Protocol: ``("chunk",
    events)`` or ``("cshard", nbytes, header)`` → ``("out", per-member
    outputs)``, the latter after decoding this shard's slice of the routed
    payload in place from the shared-memory segment (column materialization
    is lazy, but always completes before the reply, so the parent may
    overwrite the segment as soon as every reply is in); ``("finish",)`` →
    ``("fin", per-member _ShardFinal)``.  Any exception is reported as
    ``("err", message)`` and ends the worker.
    """
    try:
        replica = _Replica(members, batch, collect)
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "chunk":
                outputs = replica.feed([_decode_event(r) for r in message[1]])
            elif tag == "cshard":
                # The table (and its memoryview over the segment) lives
                # only inside this call: it is dropped before the reply,
                # so shutdown can unmap the segment.
                outputs = replica.feed(
                    decode_routed(shm.buf[:message[1]], message[2]))
            elif tag == "finish":
                # Checked execution: violations raised here propagate to the
                # parent as an ("err", ...) reply via the handler below.
                conn.send(("fin", replica.finish()))
                conn.close()
                return
            else:  # pragma: no cover - closed protocol
                raise ExecutionError(f"unknown worker message {tag!r}")
            conn.send(("out", [_encode_outputs(items) for items in outputs]))
    # Broad catch is required at this worker boundary: ANY exception type —
    # ExecutionError, a predicate's ValueError, even
    # MemoryError — must be serialized into an ("err", ...) reply, because
    # an exception object cannot cross the pipe and an unreported death
    # surfaces to the parent only as an opaque EOFError.  The regression
    # test for this path is tests/test_failure_injection.py.
    except Exception as exc:  # pragma: no cover - exercised via parent raise
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
            conn.close()
        except (BrokenPipeError, OSError):
            # The parent end is gone, so the failure cannot be reported over
            # the pipe; re-raise the *original* error so the worker exits
            # nonzero instead of masking it behind a clean exit.
            raise exc


class _ProcessShards:
    """k forked worker processes, one replica each.

    The parent sends every shard its chunk *before* collecting any reply, so
    all workers compute concurrently while the parent waits.  Chunk
    transport is zero-pickle by default, and *fused*: the parent
    struct-packs each routed chunk ONCE
    (:func:`~repro.engine.columnar.encode_routed`) — shared ``ts``
    timeline, every stream's value columns concatenated shard-major — into
    one reusable fork-inherited shared-memory segment, and each pipe
    carries only a tiny ``("cshard", nbytes, header)`` message whose
    header lists the shard's contiguous ``(stream, offset, count)`` slices
    plus their row indices.  Workers decode their slices in place,
    lazily per stream, once per replica however many members read them.
    Chunks the codec cannot represent (relation updates, ragged rows,
    oversize payloads), and every chunk on a platform without shared
    memory, fall back to the compact-tuple pickle pipe.

    The pool *fails loudly*.  A worker that dies mid-protocol (killed,
    OOMed, or crashed before it could send an ``("err", ...)`` report)
    closes its pipe; the parent sees that as :class:`EOFError` /
    :class:`OSError` on the next ``recv`` or ``send`` and must not merge
    the truncated output as a success.  Every failure path aborts the whole
    pool (terminate + reap, arena unlinked) before raising, so no zombie
    worker or shared-memory segment outlives the run.
    """

    #: Prefix of parent-side failure messages.
    what = "shard worker"
    #: Seconds a worker gets to exit after its "fin" reply before the
    #: parent escalates (class attribute so tests can shrink it).
    join_grace = 30.0
    #: Seconds granted after terminate() before kill().
    reap_grace = 5.0

    def __init__(self, members: Sequence[Member], n_shards: int,
                 batch: int | None, collect: Sequence[bool]):
        context = multiprocessing.get_context("fork")
        try:
            arena = _ShmArena()
        except (ImportError, OSError, ValueError):
            arena = None  # no shm on this platform: pickle transport
        self._arena = arena
        segment = arena.segment if arena is not None else None
        self._connections = []
        self._processes = []
        for _ in range(n_shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, members, batch, collect, segment),
                daemon=True)
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)

    def _send(self, conn, message) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            self._abort()
            raise ExecutionError(
                f"{self.what} died (pipe closed while sending "
                f"{message[0]!r}): {type(exc).__name__}") from exc

    def _receive(self, conn):
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            # Worker vanished without an ("err", ...) report — e.g. killed
            # by a signal.  Abort the pool and surface it immediately
            # rather than merging partial output.
            self._abort()
            raise ExecutionError(
                f"{self.what} died mid-protocol (pipe closed before "
                f"reply): {type(exc).__name__}") from exc
        if reply[0] == "err":
            self._abort()
            raise ExecutionError(f"{self.what} failed: {reply[1]}")
        return reply

    def _abort(self) -> None:
        """Force-shutdown every worker: close pipes, terminate, reap
        (escalating to kill for stragglers), unlink the arena."""
        for conn in self._connections:
            try:
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover - racing close
                pass
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=self.reap_grace)
            if process.is_alive():  # pragma: no cover - needs a wedged child
                process.kill()
                process.join(timeout=self.reap_grace)
        if self._arena is not None:
            self._arena.close()

    def _join_all(self) -> None:
        """End-of-run reap: verify every worker actually exited.

        A worker that survives the grace period is terminated, killed if
        necessary, reaped, and *reported* — joining with a timeout without
        checking ``is_alive()`` would leak a hung worker as a zombie while
        the run reported success.
        """
        for process in self._processes:
            process.join(timeout=self.join_grace)
        hung = sum(1 for process in self._processes if process.is_alive())
        if hung:
            self._abort()
            raise ExecutionError(
                f"{hung} {self.what}(s) failed to exit within "
                f"{self.join_grace:g}s of finishing; terminated and reaped")

    def _outputs(self):
        """Every worker's reply to the chunk just sent, ``[shard][member]``."""
        return [[_decode_outputs(payload)
                 for payload in self._receive(conn)[1]]
                for conn in self._connections]

    def feed(self, per_shard: list[list[Event]]):
        """Pickle-pipe fallback path: compact-tuple chunks, one per shard."""
        for conn, events in zip(self._connections, per_shard):
            self._send(conn,
                       ("chunk", [_encode_event(e) for e in events]))
        return self._outputs()

    def feed_chunk(self, chunk: Sequence[Event], router: "ShardRouter"):
        """Ship one global chunk: fused routed shm transport when the
        codec can represent it, ``route_chunk`` + pickle pipe otherwise."""
        arena = self._arena
        if arena is not None:
            encoded = encode_routed(chunk, router._index, router.n_shards)
            if encoded is not None and len(encoded[0]) <= _SHM_CAPACITY:
                payload, headers, shard_arrivals, broadcasts = encoded
                # Fold in the routing statistics route_chunk would have
                # counted (the fused encoder routes without building the
                # per-shard event lists).
                per_shard_arrivals = router.per_shard_arrivals
                for i, count in enumerate(shard_arrivals):
                    per_shard_arrivals[i] += count
                router.broadcasts += broadcasts
                nbytes = len(payload)
                arena.segment.buf[:nbytes] = payload
                for conn, header in zip(self._connections, headers):
                    self._send(conn, ("cshard", nbytes, header))
                return self._outputs()
        return self.feed(router.route_chunk(chunk))

    def finish(self) -> list[list[_ShardFinal]]:
        try:
            for conn in self._connections:
                self._send(conn, ("finish",))
            finals = []
            for conn in self._connections:
                finals.append(self._receive(conn)[1])
                conn.close()
            self._join_all()
        finally:
            if self._arena is not None:
                self._arena.close()
        return finals


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except (OSError, ValueError):  # pragma: no cover - platform-specific
        # Exotic platforms can fail to enumerate start methods (no _posix
        # support, restricted environments); treat that as "no fork" and
        # let the caller degrade to the serial backend.
        return False


# -- the one sharded runtime -----------------------------------------------------


class _ReplicaRun(NamedTuple):
    """What :func:`_run_replicas` hands to the run results."""

    backend: str
    elapsed: float
    events_processed: int
    tuples_arrived: int
    #: ``[shard][member]`` end-of-run reports.
    finals: list[list[_ShardFinal]]
    router: ShardRouter

    def member(self, index: int) -> list[_ShardFinal]:
        """One member's reports, in shard order."""
        return [shard[index] for shard in self.finals]

    def answer(self, index: int) -> Multiset:
        """A member's answer: the sum of its shard views' snapshots (every
        result lives in exactly one shard)."""
        total: Multiset = Multiset()
        for final in self.member(index):
            total.update(final.answer)
        return total

    def counters(self, index: int) -> Counters:
        """A member's counters, summed over its shards."""
        return Counters.total(final.counters for final in self.member(index))

    def merged_metrics(self, labels: Sequence[dict]):
        """Fold the replicas' metrics snapshots into one parent registry.

        ``labels[member]`` tells the members' series apart (``{}`` for a
        single query, ``{"query": name}`` in a group).  Returns ``(merged,
        per_shard)``.  Each snapshot is merged twice, under ``shard=i`` and
        without, so the exported series satisfy *total = Σ shards* exactly,
        per (name, label set) — replica pipelines produce label-identical
        registries because operator ids are stable plan-walk indices.
        Router occupancy gauges are added so the export also answers "was
        the key distribution balanced?".
        """
        merged = MetricsRegistry()
        per_shard = []
        for index, shard in enumerate(self.finals):
            registry = MetricsRegistry()
            for final, member in zip(shard, labels):
                registry.merge_snapshot(final.metrics, member)
                merged.merge_snapshot(final.metrics,
                                      {**member, "shard": str(index)})
                merged.merge_snapshot(final.metrics, member)
            per_shard.append(registry)
        for index, arrivals in enumerate(self.router.per_shard_arrivals):
            merged.gauge("router_shard_arrivals",
                         shard=str(index)).set(arrivals)
        merged.gauge("router_broadcasts").set(self.router.broadcasts)
        return merged, per_shard


def _run_replicas(members: Sequence[Member], part: Partitionability,
                  events: Iterable[Event], *, shards: int, backend: str,
                  batch: int | None,
                  subscribers: Sequence[Sequence[Callable[[Tuple, float],
                                                          None]]]
                  ) -> _ReplicaRun | None:
    """Run ``members`` as ``shards`` key-routed replicas over ``events``:
    the one parent loop (chunking, ``feed_chunk``, per-member merge with
    its holdback flush, timing).  ``subscribers[i]`` receive member ``i``'s
    merged output stream.

    Also the one place that decides the fallback: None means the member
    set runs unsharded (``shards == 1``, or ``part.reason`` says why it
    cannot shard) on the pipeline the caller owns.  A process backend on a
    host without ``fork`` degrades to serial (see the returned ``backend``).
    """
    check_run_args(batch, shards, backend)
    if shards == 1 or not part.shardable:
        return None
    if backend == PROCESS and not _fork_available():
        backend = SERIAL  # pragma: no cover - non-fork platforms
    router = ShardRouter(part.keys, shards)
    mergers = [_Merger(callbacks) for callbacks in subscribers]
    collect = [merger.active for merger in mergers]
    pool_cls = _SerialShards if backend == SERIAL else _ProcessShards
    pool = pool_cls(members, shards, batch, collect)
    collecting = any(collect)

    chunk_size = batch if batch is not None and batch > 1 else DEFAULT_CHUNK
    start = time.perf_counter()
    events_processed = 0
    tuples_arrived = 0
    for chunk in _chunked(events, chunk_size):
        events_processed += len(chunk)
        tuples_arrived += sum(
            1 for event in chunk if isinstance(event, Arrival))
        outputs = pool.feed_chunk(chunk, router)
        if collecting:
            for shard, per_member in enumerate(outputs):
                for merger, items in zip(mergers, per_member):
                    merger.add(shard, items)
            for merger in mergers:
                merger.flush_below(chunk[-1].ts)
    finals = pool.finish()
    for merger in mergers:
        merger.finish()
    elapsed = time.perf_counter() - start
    return _ReplicaRun(backend, elapsed, events_processed, tuples_arrived,
                       finals, router)


# -- group sharding ------------------------------------------------------------


def analyze_group_partitionability(
        members: Sequence[tuple[str, LogicalNode, ExecutionConfig | None]]
) -> Partitionability:
    """Combined verdict for a query group executed in lockstep.

    Every member must be individually shardable, and members that key the
    same stream must agree on the key attribute (a free demand defers to a
    keyed one — any routing is correct for the free member)."""
    keys: dict[str, StreamShardKey] = {}
    for name, plan, _config in members:
        verdict = analyze_partitionability(plan)
        if not verdict.shardable:
            return Partitionability(
                False, {}, f"member {name!r}: {verdict.reason}")
        for stream, shard_key in verdict.keys.items():
            prior = keys.get(stream)
            if prior is None or prior.attr is None:
                keys[stream] = shard_key
            elif (shard_key.attr is not None
                    and shard_key.attr != prior.attr):
                return Partitionability(
                    False, {},
                    f"members key stream {stream!r} on both "
                    f"{prior.attr!r} and {shard_key.attr!r}")
    return Partitionability(True, keys, None)
