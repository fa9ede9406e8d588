"""Replay loops, estimators and the three per-layer sources.

Everything here drives the program over its public path, the one the CLI
uses: ``lang.parser.parse`` -> ``QueryCompiler.compile`` ->
``ContinuousQuery(plan, ExecutionConfig)`` -> ``Executor.process_batch`` /
``process_event`` (or ``query.run`` for the sharded workload) ->
``answer()``.  Every replay gets a freshly compiled query.

End-to-end pass (tracing off): timed replays for ``ms_per_1k``, one
checkpoint replay for correctness, ``answer_ms`` and ``state_peak``, one
``cProfile`` replay for ``calls_per_1k``, repeated set-up for ``setup_s``.

Per-layer pass: spans recorded here, around the calls into each layer;
the same ``cProfile`` replay bucketed by source module; and the program's
public ``RunResult.counters``.
"""

from __future__ import annotations

import cProfile
import hashlib
import os
import pstats
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import repro
from repro import (
    ContinuousQuery,
    Counters,
    ExecutionConfig,
    QueryCompiler,
    Schema,
    ShardRouter,
    SourceCatalog,
    analyze_partitionability,
    compile_plan,
)
from repro.analysis.bounds import attach_certificate
from repro.core.optimizer import Optimizer
from repro.engine.columnar import decode_routed, encode_routed
from repro.engine.program import build_program
from repro.engine.shard import DEFAULT_CHUNK
from repro.engine.specialize import make_driver
from repro.lang.parser import parse

from .gen import FIELDS, STREAMS
from .reference import Reference
from .workloads import Workload

#: Arrivals per timed segment: one ``process_batch`` call.  This host
#: alternates between an undisturbed and a ~1.6x slower state in bursts of
#: a few milliseconds, so only a segment about that short is regularly
#: seen undisturbed.
SEGMENT = 64
#: Arrivals covered by the cProfile replay and the shard-codec probes.
PROFILE_ARRIVALS = 32768
#: Set-ups timed before every replay (three replays at least: 39 set-ups).
SETUP_REPS = 13
STAGE_REPS = 11
#: Evenly spaced points of a replay where the answer is checked (the
#: checkpoint pass) or its read is timed (the timed replays).  Many,
#: because one instant's answer size varies with the seed far more than
#: the average over a replay does.
CHECKPOINTS = 24
#: Checkpoints fall on multiples of this (every batch and poll size).
ALIGN = 1024
READ_REPS = 5

Metric = tuple[float, str]
clock = time.perf_counter


class Tally:
    """Operations attempted and failed (checkpoints, answers, replays)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


class Spans:
    """In-memory span log: name, start, end, parent and workload id."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[list] = []  # [name, start, end, parent]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.rows)
        self.rows.append(
            [name, clock(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.rows[index][2] = clock()

    def add_children(self, parent: int, name: str, marks: list) -> None:
        """Bulk-add leaf spans timed in a hot loop as (start, end) pairs."""
        self.rows.extend([name, start, end, parent] for start, end in marks)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p in self.rows if n == name]

    def document(self) -> list[dict]:
        """Every span with its self time (duration minus child spans)."""
        child_time = [0.0] * len(self.rows)
        for _name, start, end, parent in self.rows:
            if parent is not None:
                child_time[parent] += end - start
        return [
            {"id": i, "parent": parent, "workload": self.workload,
             "name": name, "start": start, "end": end,
             "self": end - start - child_time[i]}
            for i, (name, start, end, parent) in enumerate(self.rows)
        ]


# -- the public path ----------------------------------------------------------


def catalog() -> SourceCatalog:
    registry = SourceCatalog()
    for stream in STREAMS:
        registry.add_stream(stream, Schema(FIELDS))
    return registry


def compile_text(text: str):
    """Query text to logical plan: the parser, then the compiler."""
    return QueryCompiler(catalog()).compile(parse(text))


def build(w: Workload) -> ContinuousQuery:
    return ContinuousQuery(compile_text(w.text), ExecutionConfig(mode=w.mode))


def _stepper(w: Workload, query: ContinuousQuery, events: list):
    """``advance(start, stop)``: feed ``events[start:stop]`` the way the
    workload drives them (names bound once: the timed loop calls this per
    segment)."""
    executor = query.executor
    n = len(events)
    batch = w.batch
    poll = w.poll
    if batch is None:
        process_event = executor.process_event

        def advance(start: int, stop: int) -> None:
            for event in events[start:stop]:
                process_event(event)
    elif poll is None:
        process_batch = executor.process_batch

        def advance(start: int, stop: int) -> None:
            for i in range(start, min(stop, n), batch):
                process_batch(events[i:i + batch])
    else:
        process_batch = executor.process_batch
        answer = executor.answer

        def advance(start: int, stop: int) -> None:
            for i in range(start, min(stop, n), batch):
                process_batch(events[i:i + batch])
                if not (i + batch) % poll:
                    answer()
    return advance


def _stamped(events: list, marks: list) -> Iterator:
    """The events as an iterator (what the CLI hands ``run``), noting the
    time each segment is first asked for."""
    for start in range(0, len(events), SEGMENT):
        marks.append(clock())
        yield from events[start:start + SEGMENT]


def _replay_segments(w: Workload, events: list):
    """One timed replay: per-segment wall times, ``answer()`` read times
    at ``CHECKPOINTS`` evenly spaced segment ends (outside the segment
    timers; the final answer only for the sharded workload, whose state
    lives in the workers), and the final answer."""
    query = build(w)
    if w.shards:
        marks: list = []
        begin = clock()
        result = query.run(_stamped(events, marks), batch=w.batch,
                           shards=w.shards, shard_backend="process")
        edges = [begin, *marks[1:], clock()]
        times = [b - a for a, b in zip(edges, edges[1:])]
        return times, [_best_of(result.answer)], result.answer()
    starts = range(0, len(events), SEGMENT)
    read_after = {len(starts) * k // CHECKPOINTS - 1
                  for k in range(1, CHECKPOINTS + 1)}
    times = []
    reads = []
    advance = _stepper(w, query, events)
    answer = query.executor.answer
    for index, start in enumerate(starts):
        t0 = clock()
        advance(start, start + SEGMENT)
        times.append(clock() - t0)
        if index in read_after:
            reads.append(_best_of(answer))
    return times, reads, answer()


def _best_of(call: Callable, reps: int = READ_REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = clock()
        call()
        best = min(best, clock() - t0)
    return best


def answer_digest(answer) -> str:
    return hashlib.sha256(
        repr(sorted(answer.items())).encode()).hexdigest()[:16]


# -- end-to-end estimators ----------------------------------------------------


def floor(rows: list[list[float]]) -> list[float]:
    """Per position, the minimum across replays.  The work at position
    *i* is identical in every replay and host noise only ever adds time,
    so each minimum is the least disturbed observation."""
    return list(map(min, zip(*rows)))


def timed_replays(w: Workload, events: list, seconds: float,
                  replays: int, tally: Tally, out: dict) -> None:
    """Replay until ``out`` holds ``seconds`` of measured time and at
    least ``replays`` replays.  Before every replay, set-up is timed
    ``SETUP_REPS`` times and the best kept, so the set-up samples span the
    whole run like the replays do.  Every replay's final answer must be
    the same."""
    while len(out["segments"]) < replays or out["spent"] < seconds:
        out["setup"].append(_best_of(lambda: build(w), SETUP_REPS))
        times, reads, answer = _replay_segments(w, events)
        out["segments"].append(times)
        out["reads"].append(reads)
        out["spent"] += sum(times)
        if out["answer"] is None:
            out["answer"] = answer
        tally.check(answer == out["answer"])


def checkpoint_pass(w: Workload, events: list, reference: Reference,
                    tally: Tally):
    """One untimed replay that stops at evenly spaced checkpoints to
    compare the delivered answer with the Definition-1 reference and read
    the state size; returns the state sizes and the final answer."""
    n = len(events)
    if w.shards:
        # State lives in the workers: only the final answer is readable.
        result = build(w).run(iter(events), batch=w.batch, shards=w.shards,
                              shard_backend="process")
        answer = result.answer()
        tally.check(reference.matches(w.name, events[-1].ts, answer))
        return [result.state_size + sum(answer.values())], answer
    query = build(w)
    executor = query.executor
    compiled = query.compiled
    advance = _stepper(w, query, events)
    state = []
    position = 0
    for k in range(1, CHECKPOINTS + 1):
        mark = n * k // CHECKPOINTS // ALIGN * ALIGN if k < CHECKPOINTS \
            else n
        if mark <= position:
            continue
        advance(position, mark)
        position = mark
        answer = executor.answer()
        tally.check(reference.matches(w.name, executor.now, answer))
        state.append(compiled.state_size() + len(compiled.view))
    return state, answer


def profile_pass(w: Workload, events: list) -> pstats.Stats:
    """``cProfile`` over the first ``PROFILE_ARRIVALS`` arrivals.  The
    total call count is exact for a given trace; for the sharded workload
    it covers the parent process (route, encode, pipes, merge)."""
    head = events[:PROFILE_ARRIVALS]
    query = build(w)
    profiler = cProfile.Profile()
    if w.shards:
        profiler.runcall(query.run, iter(head), batch=w.batch,
                         shards=w.shards, shard_backend="process")
    else:
        profiler.runcall(_stepper(w, query, head), 0, len(head))
    return pstats.Stats(profiler)


def end_to_end(w: Workload, events: list, reference: Reference,
               seconds: float, min_replays: int,
               tally: Tally) -> dict[str, Metric]:
    n = len(events)
    per_1k = 1000.0 / n
    # The untimed passes sit between thirds of the timed replays, so the
    # timed observations span as much wall time as the run allows: a slow
    # spell of the host has to outlast all of it to go unseen.
    timed: dict = {"segments": [], "reads": [], "setup": [], "spent": 0.0,
                   "answer": None}
    timed_replays(w, events, seconds / 3, 1, tally, timed)
    state, checked_answer = checkpoint_pass(w, events, reference, tally)
    timed_replays(w, events, seconds * 2 / 3, 2, tally, timed)
    stats = profile_pass(w, events)
    timed_replays(w, events, seconds, min_replays, tally, timed)
    final = timed["answer"]
    tally.check(checked_answer == final)
    whole = sorted(sum(row) for row in timed["segments"])
    print(f"  replays {len(whole)} x {n} arrivals; whole-run ms/1k: min "
          f"{whole[0] * 1e3 * per_1k:.4f}, quartiles "
          + " / ".join(f"{q * 1e3 * per_1k:.4f}"
                       for q in statistics.quantiles(whole, n=4))
          + f"; {len(whole) * SETUP_REPS} set-ups; final answer "
          f"{sum(final.values())} tuples, digest {answer_digest(final)}")
    return {
        "ms_per_1k": (sum(floor(timed["segments"])) * 1e3 * per_1k, "ms"),
        "calls_per_1k": (stats.total_calls * 1000.0
                         / min(n, PROFILE_ARRIVALS), "count"),
        "setup_s": (statistics.median(timed["setup"]), "s"),
        "answer_ms": (statistics.fmean(floor(timed["reads"])) * 1e3, "ms"),
        "state_peak": (float(max(state)), "tuples"),
    }


# -- per-layer sources --------------------------------------------------------

#: Profile layers, in the order they are reported.
LAYERS = (
    "lang", "core.tuples", "core.other", "engine.driver",
    "engine.specialize", "engine.columnar", "engine.executor",
    "engine.views", "engine.shard", "engine.other", "operators.stateless",
    "operators.join", "operators.dupelim", "operators.negation",
    "operators.groupby", "operators.base", "buffers.fifo",
    "buffers.partitioned", "buffers.hashed", "buffers.groupstore",
    "buffers.base", "streams", "analysis", "outside",
)
_OWN_LAYER = {"operators/aggregates": "operators.groupby"}
_REST_LAYER = {"core": "core.other", "engine": "engine.other",
               "operators": "operators.base", "buffers": "buffers.base"}


_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    """The profile layer of a source file (``outside`` for the benchmark's
    own loop and the standard library)."""
    if not filename.startswith(_PACKAGE_DIR):
        return "outside"
    module = filename[len(_PACKAGE_DIR):-len(".py")].replace(os.sep, "/")
    package = module.partition("/")[0]
    dotted = _OWN_LAYER.get(module, module.replace("/", "."))
    if dotted in LAYERS:
        return dotted
    if package in LAYERS:
        return package
    return _REST_LAYER.get(package, "outside")


def layer_profile(stats: pstats.Stats) -> dict[str, tuple[float, int]]:
    """Self time and calls per layer.  A C builtin has no source module:
    its time and calls are charged to the modules that called it, edge by
    edge, from the profile's callers table."""
    time_in = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) \
            in stats.stats.items():
        if filename != "~":
            layer = layer_of(filename)
            time_in[layer] += tt
            calls_in[layer] += nc
            continue
        if not callers:
            time_in["outside"] += tt
            calls_in["outside"] += nc
        for (caller_file, _l, _n), (_ecc, edge_nc, edge_tt, _ect) \
                in callers.items():
            layer = layer_of(caller_file)
            time_in[layer] += edge_tt
            calls_in[layer] += edge_nc
    return {layer: (time_in[layer], calls_in[layer]) for layer in LAYERS}


#: Set-up stages, each a span around one call into one layer.
STAGES = (
    "lang.parser.parse", "lang.compiler.compile",
    "core.optimizer.optimize", "engine.strategies.compile_plan",
    "engine.program.build_program", "engine.specialize.make_driver",
    "analysis.bounds.attach_certificate",
)


def staged_setup(w: Workload, spans: Spans) -> None:
    """``ContinuousQuery(...)`` taken apart: the same calls its
    constructor makes, one span each.  The optimizer is probed beside
    them; the run path does not call it."""
    config = ExecutionConfig(mode=w.mode)
    with spans.span("setup"):
        with spans.span(STAGES[0]):
            ast = parse(w.text)
        with spans.span(STAGES[1]):
            plan = QueryCompiler(catalog()).compile(ast)
        with spans.span(STAGES[2]):
            Optimizer().optimize(plan)
        with spans.span(STAGES[3]):
            compiled = compile_plan(plan, config, Counters())
        with spans.span(STAGES[4]):
            program = build_program(compiled)
        with spans.span(STAGES[5]):
            make_driver(compiled, program)
        with spans.span(STAGES[6]):
            attach_certificate(compiled)


def traced_replay(w: Workload, events: list, spans: Spans):
    """One unsharded replay with a span per ``SEGMENT`` arrivals, timed
    as the end-to-end pass times them; returns its wall time and query."""
    query = build(w)
    advance = _stepper(w, query, events)
    marks = []
    with spans.span("engine.executor.replay") as parent:
        begin = clock()
        for start in range(0, len(events), SEGMENT):
            t0 = clock()
            advance(start, start + SEGMENT)
            marks.append((t0, clock()))
        elapsed = clock() - begin
    spans.add_children(parent, "engine.executor.chunk", marks)
    return elapsed, query


def untraced_replay(w: Workload, events: list) -> float:
    query = build(w)
    advance = _stepper(w, query, events)
    begin = clock()
    advance(0, len(events))
    return clock() - begin


def shard_probes(plan, size: int, events: list, spans: Spans) -> dict:
    """Route, encode and decode the workload's chunks outside any run:
    the parent-side and worker-side transport costs on their own."""
    head = events[:PROFILE_ARRIVALS]
    chunks = [head[i:i + size] for i in range(0, len(head), size)]
    keys = analyze_partitionability(plan).keys
    key_index = {name: key.index for name, key in keys.items()}
    router = ShardRouter(keys, 2)
    with spans.span("engine.shard.route"):
        for chunk in chunks:
            router.route_chunk(chunk)
    with spans.span("engine.columnar.encode"):
        encoded = [encode_routed(chunk, key_index, 2) for chunk in chunks]
    with spans.span("engine.columnar.decode"):
        for payload, headers, _arrivals, _broadcasts in encoded:
            for header in headers:
                table = decode_routed(payload, header)
                for stream in table.groups():
                    if stream in key_index:
                        table.group_values(stream)
    arrivals = router.per_shard_arrivals
    return {"skew": max(arrivals) * len(arrivals) / sum(arrivals),
            "arrivals": len(head)}


def _percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(w: Workload, events: list, seconds: float, min_replays: int,
              tally: Tally, spans: Spans) -> dict[str, Metric]:
    n = len(events)
    per_1k = 1000.0 / n
    metrics: dict[str, Metric] = {}

    for _ in range(STAGE_REPS):
        staged_setup(w, spans)
    for stage in STAGES:
        metrics[f"{stage}_ms"] = (
            statistics.median(spans.durations(stage)) * 1e3, "ms")

    # Tracing off and on, alternating, so both see the same host.
    plain = w._replace(shards=None)
    untraced: list[float] = []
    traced: list[float] = []
    spent = 0.0
    while len(traced) < min_replays or spent < seconds / 2:
        untraced.append(untraced_replay(plain, events))
        elapsed, query = traced_replay(plain, events, spans)
        traced.append(elapsed)
        spent += untraced[-1] + elapsed
    chunk_times = sorted(spans.durations("engine.executor.chunk"))
    metrics["engine.executor.chunk_p50_us"] = (
        _percentile(chunk_times, 0.50) * 1e6, "us")
    metrics["engine.executor.chunk_p99_us"] = (
        _percentile(chunk_times, 0.99) * 1e6, "us")
    metrics["engine.executor.chunk_max_ms"] = (chunk_times[-1] * 1e3, "ms")
    metrics["trace.overhead_share"] = (
        min(traced) / min(untraced) - 1.0, "share")
    chunk_answer = query.answer()

    view = query.compiled.view
    now = query.executor.now
    with spans.span("engine.views.snapshot"):
        snapshot_s = _best_of(lambda: view.snapshot(now))
    metrics["engine.views.snapshot_ms"] = (snapshot_s * 1e3, "ms")
    metrics["engine.views.answer_size"] = (
        float(sum(chunk_answer.values())), "tuples")

    with spans.span("engine.executor.run"):
        result = build(plain).run(iter(events), batch=plain.batch)
    tally.check(result.answer() == chunk_answer)
    metrics["engine.executor.run_ms_per_1k"] = (
        result.elapsed * 1e3 * per_1k, "ms")
    for name, field in (("touches", "touches"), ("inserts", "inserts"),
                        ("expirations", "expirations"),
                        ("probes", "probes"),
                        ("negatives", "negatives_processed"),
                        ("results", "results_produced")):
        metrics[f"core.metrics.{name}_per_1k"] = (
            getattr(result.counters, field) * per_1k, "count")

    with spans.span("engine.shard.run"):
        sharded = build(plain).run(iter(events), batch=plain.batch,
                                   shards=2, shard_backend="process")
    tally.check(sharded.answer() == chunk_answer)
    metrics["engine.shard.scaling"] = (
        result.elapsed / sharded.elapsed, "ratio")
    probes = shard_probes(query.plan, w.batch or DEFAULT_CHUNK, events, spans)
    for name in ("engine.shard.route", "engine.columnar.encode",
                 "engine.columnar.decode"):
        (duration,) = spans.durations(name)
        metrics[f"{name}_ms_per_1k"] = (
            duration * 1e6 / probes["arrivals"], "ms")
    metrics["engine.shard.skew"] = (probes["skew"], "ratio")

    profile = layer_profile(profile_pass(w, events))
    total = sum(t for t, _calls in profile.values())
    profiled = min(n, PROFILE_ARRIVALS)
    for layer, (seconds_in, calls) in profile.items():
        metrics[f"{layer}.self_share"] = (seconds_in / total, "share")
        metrics[f"{layer}.calls_per_1k"] = (
            calls * 1000.0 / profiled, "count")
    return metrics
