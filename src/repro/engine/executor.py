"""The `Executor` façade: one compiled program, one unified driver.

Section 2's processing model: "Each new tuple is processed immediately by
all the operators in the query before the next tuple is processed.
Consequently, results are produced in timestamp order."  The event loop
that implements this — per-tuple and micro-batch, with the batched-mode
exactness argument — lives in :mod:`repro.engine.driver`; the query's
static shape (dispatch tables, fused prefixes, expiration participants,
resolved routes) is compiled once into an
:class:`~repro.engine.program.ExecutionProgram`.  ``Executor`` builds the
program and driver for one :class:`CompiledQuery` and adds the run-level
orchestration: wall-clock timing, sharded-execution delegation, drain
verification for checked mode, and the :class:`RunResult` surface.

Shared groups (``sharing.py``: every member through this façade, every
producer on a bare driver) and shard workers (``shard.py``) run the same
programs on the same driver — there is exactly one propagate / expire /
dispatch implementation in the engine.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from ..analysis.bounds import attach_certificate, validate_certificate
from ..analysis.sanitizer import verify_drain
from ..errors import ConfigError, ExecutionError
from ..streams.stream import Event
from .driver import Driver
from .program import build_program
from .strategies import CompiledQuery

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


class RunResult:
    """Outcome of a run: the view, counters, and elapsed wall time.

    ``events_processed`` counts *all* engine events (arrivals, relation
    updates and ticks) and is kept for diagnostics; ``tuples_arrived``
    counts stream arrivals only, which is the denominator of the paper's
    per-1000-*tuples* metric (Section 6.1 reports execution time per 1000
    tuples, not per 1000 timeline events).
    """

    def __init__(self, executor: "Executor", elapsed: float,
                 events_processed: int, tuples_arrived: int | None = None):
        self.executor = executor
        self.view = executor.compiled.view
        self.counters = executor.compiled.counters
        self.elapsed = elapsed
        self.events_processed = events_processed
        self.tuples_arrived = (tuples_arrived if tuples_arrived is not None
                               else executor.tuples_arrived)

    def answer(self):
        """The live result multiset Q(now) at the end of the run."""
        return self.view.snapshot(self.executor.now)

    @property
    def metrics(self):
        """The pipeline's :class:`~repro.engine.telemetry.MetricsRegistry`,
        flushed at the end of the run."""
        return self.executor.compiled.metrics

    @property
    def touches(self) -> int:
        return self.counters.touches

    def time_per_1000(self) -> float:
        """Average execution time per 1000 stream *tuples* — the paper's
        metric.  Tick and RelationUpdate events drive the run but are not
        tuples, so they do not inflate the denominator."""
        if not self.tuples_arrived:
            return 0.0
        return 1000.0 * self.elapsed / self.tuples_arrived

    def touches_per_tuple(self) -> float:
        """Deterministic state touches per stream tuple (same denominator
        as :meth:`time_per_1000`)."""
        if not self.tuples_arrived:
            return 0.0
        return self.counters.touches / self.tuples_arrived

    @property
    def certificate(self):
        """The pipeline's :class:`~repro.analysis.bounds.StateCertificate`
        (symbolic per-operator state bounds + per-unit-time cost);
        cross-validated against observed counters at drain time when the
        run was ``checked=True``."""
        return getattr(self.executor.compiled, "certificate", None)

    def __repr__(self) -> str:
        return (
            f"RunResult(events={self.events_processed}, "
            f"tuples={self.tuples_arrived}, "
            f"elapsed={self.elapsed:.3f}s, touches={self.touches})"
        )


class Executor:
    """Drives a compiled query over an event sequence.

    A thin façade: the compiled query is flattened into an
    :class:`~repro.engine.program.ExecutionProgram` and run by a
    :class:`~repro.engine.driver.Driver`; this class only adds run-level
    orchestration (timing, shard delegation, drain checks, RunResult).
    """

    def __init__(self, compiled: CompiledQuery):
        self.compiled = compiled
        self.program = build_program(compiled)
        self.driver = Driver(compiled, self.program)
        # Derive the symbolic state-bound certificate and (in checked
        # mode) arm its monitors so drain-time validation can cross-check
        # observed occupancy against the certified bounds.
        self.certificate = attach_certificate(compiled)

    # -- driver surface ----------------------------------------------------

    @property
    def now(self) -> float:
        return self.driver.now

    @property
    def tuples_arrived(self) -> int:
        """Stream arrivals processed so far (the per-1000-tuples
        denominator)."""
        return self.driver._tuples_arrived

    @property
    def _lazy_interval(self) -> float | None:
        return self.driver._lazy_interval

    def subscribe(self, callback) -> None:
        """Receive the query's *output stream* (see
        :meth:`~repro.engine.driver.Driver.subscribe`)."""
        self.driver.subscribe(callback)

    def answer(self):
        """Current result multiset Q(now)."""
        return self.driver.answer()

    def process_event(self, event: Event) -> None:
        """Advance the clock, expire state, then dispatch one event."""
        self.driver.process_event(event)

    def process_batch(self, events: Sequence[Event]) -> None:
        """Process a micro-batch with one amortized expiration schedule
        (see :meth:`~repro.engine.driver.Driver.process_batch`)."""
        self.driver.process_batch(events)

    # -- run orchestration -------------------------------------------------

    def run(self, events: Iterable[Event],
            on_event: Callable[["Executor", Event], None] | None = None,
            batch: int | None = None, shards: int | None = None,
            shard_backend: str = "process") -> RunResult:
        """Process every event; optionally call ``on_event`` after each one.

        ``batch=N`` (N > 1) selects the micro-batch path: events are grouped
        into runs of at most ``N`` and each run shares one amortized
        expiration schedule (see :mod:`repro.engine.driver` for the
        exactness argument).  ``batch=None`` or ``1`` is the paper's
        tuple-at-a-time model.  Both paths produce identical output
        streams, snapshots and expiration counters.

        ``shards=k`` (k > 1) selects key-sharded parallel execution (see
        :mod:`repro.engine.shard`): the plan is analysed for
        partitionability, compiled into ``k`` replicas, and every arrival is
        routed by a stable hash of its shard key.  ``shard_backend`` picks
        ``"serial"`` (in-process reference backend) or ``"process"``
        (forked worker pool).  Unshardable plans fall back to this
        executor's ordinary unsharded run and the returned result's
        ``fallback_reason`` explains why.  Answers and per-instant output
        multisets are identical to unsharded execution.
        """
        check_run_args(batch, shards, shard_backend)
        driver = self.driver
        if shards is not None and shards > 1:
            from .shard import ShardedExecutor

            if on_event is not None:
                raise ExecutionError(
                    "on_event callbacks observe per-event executor state and "
                    "are not supported with sharded execution")
            # This pipeline stays the live one when the plan cannot shard:
            # the sharded executor falls back onto it, subscribers included.
            sharded = ShardedExecutor(
                self.compiled.root, self.compiled.config,
                shards=shards, backend=shard_backend, inline=self)
            if sharded.partitionability.shardable and driver._events_processed:
                raise ExecutionError(
                    "sharded execution needs a fresh pipeline; this executor "
                    "has already processed events")
            return sharded.run(events, batch=batch)
        start = time.perf_counter()
        if batch is None or batch <= 1:
            # Blocks of one sample period: the compiled closure takes no
            # sample check, the block step does.
            iterator = iter(events)
            step = None if on_event is None else partial(on_event, self)
            while driver.process_block(
                    islice(iterator, driver.sample_events), step):
                pass
        else:
            process_batch = driver.process_batch
            for chunk in _chunked(events, batch):
                process_batch(chunk)
                if on_event is not None:
                    for event in chunk:
                        on_event(self, event)
        elapsed = time.perf_counter() - start
        # Checked execution: assert counter conservation on every monitored
        # buffer now that the event stream is exhausted (no-op otherwise),
        # then cross-validate the observed occupancy peaks against the
        # symbolic state-bound certificate.
        verify_drain(self.compiled)
        validate_certificate(self.compiled)
        driver.flush_metrics(elapsed)
        return RunResult(self, elapsed, driver._events_processed,
                         driver._tuples_arrived)
