"""The nine experiments of the reproduction (see DESIGN.md's index).

Each function returns the list of measurements and prints the paper-style
table.  ``python -m benchmarks.harness all`` runs everything.
"""

from __future__ import annotations

import dataclasses

from repro import Arrival, ExecutionConfig, Mode
from repro.core.cost import Catalog, CostModel
from repro.engine.strategies import STR_NEGATIVE, STR_PARTITIONED
from repro.workloads import (
    TrafficConfig,
    query1,
    query2,
    query3,
    query4,
    query5_pullup,
    query5_pushdown,
)

from .common import (
    BENCH_TRAFFIC,
    Measurement,
    make_generator,
    print_table,
    run_once,
    speedup_summary,
    standard_strategies,
    sweep,
    trace_for,
    windows,
)

ALL_STRATEGIES = standard_strategies(Mode.NT, Mode.DIRECT, Mode.UPA)
STRICT_STRATEGIES = [
    ("NT", lambda: ExecutionConfig(mode=Mode.NT)),
    ("UPA-part", lambda: ExecutionConfig(mode=Mode.UPA,
                                         str_storage=STR_PARTITIONED)),
    ("UPA-neg", lambda: ExecutionConfig(mode=Mode.UPA,
                                        str_storage=STR_NEGATIVE)),
]


def e1_query1_ftp() -> list[Measurement]:
    """Figure 9: Query 1 with the selective ftp predicate."""
    results = sweep(lambda gen, w: query1(gen, w, "ftp"), ALL_STRATEGIES)
    print_table("E1 / Fig 9 — Query 1 (ftp join), time vs window", results)
    return results


def e2_query1_telnet() -> list[Measurement]:
    """Figure 10: Query 1 with the high-output telnet predicate."""
    results = sweep(lambda gen, w: query1(gen, w, "telnet"), ALL_STRATEGIES)
    print_table("E2 / Fig 10 — Query 1 (telnet join), time vs window",
                results)
    print("  DIRECT/UPA touch ratio:",
          {w: round(r, 1) for w, r in
           speedup_summary(results, "DIRECT", "UPA").items()})
    return results


def e3_query2_distinct() -> list[Measurement]:
    """Figure 11: Query 2 — δ vs the standard duplicate elimination."""
    out: list[Measurement] = []
    for pairs, tag in ((False, "src"), (True, "src-dst")):
        results = sweep(lambda gen, w, p=pairs: query2(gen, w, pairs=p),
                        ALL_STRATEGIES)
        print_table(f"E3 / Fig 11 — Query 2 (distinct {tag}), time vs window",
                    results)
        out.extend(results)
    return out


def e4_query3_negation() -> list[Measurement]:
    """Figure 12: Query 3 — STR result storage under two premature-
    expiration regimes (controlled by the links' source-IP overlap)."""
    out: list[Measurement] = []
    for overlap, tag in ((1.0, "high overlap / frequent premature"),
                         (0.0, "no overlap / no premature")):
        config = dataclasses.replace(BENCH_TRAFFIC, ip_overlap=overlap)
        results = sweep(query3, STRICT_STRATEGIES, config=config)
        print_table(f"E4 / Fig 12 — Query 3 (negation), {tag}", results)
        out.extend(results)
    return out


def e5_query4_distinct_join() -> list[Measurement]:
    """Figure 13: Query 4 — δ feeding a join with partitioned state."""
    results = sweep(query4, ALL_STRATEGIES)
    print_table("E5 / Fig 13 — Query 4 (distinct + join), time vs window",
                results)
    return results


def e6_query5_rewritings() -> list[Measurement]:
    """Figure 14: both Figure 6 rewritings of Query 5 under each STR
    execution choice.

    Two overlap regimes expose both sides of the paper's discussion
    (Section 5.4.3): with full source-IP overlap the negation drastically
    reduces the join input and push-down wins; with partial overlap the
    negation removes little but still churns out premature negatives, which
    is where pulling it above the join pays off.
    """
    out: list[Measurement] = []
    for overlap, regime in ((1.0, "full overlap"), (0.25, "partial overlap")):
        config = dataclasses.replace(BENCH_TRAFFIC, ip_overlap=overlap)
        regime_results: list[Measurement] = []
        for plan_fn, tag in ((query5_pullup, "pull-up"),
                             (query5_pushdown, "push-down")):
            results = sweep(plan_fn, STRICT_STRATEGIES, config=config)
            for m in results:
                m.label = f"{tag}/{m.label}"
            regime_results.extend(results)
        print_table(
            f"E6 / Fig 14 — Query 5, pull-up vs push-down ({regime})",
            regime_results)
        out.extend(regime_results)
    return out


def e7_partition_sweep(window: float = 400) -> list[Measurement]:
    """Figure 15: effect of the number of partitions (Query 4 under UPA).

    Query 4, not Query 1 telnet: Query 1's only partitioned buffer was its
    result view, and a UPA bag ⋈ bag root now answers from join state
    (``JoinStateView``).  Query 4 keeps partitioned buffers on both sides
    — the join's WK inputs and the δ ⋈ δ view (see EXPERIMENTS.md, E7).
    """
    gen = make_generator()
    events = trace_for(window)
    results: list[Measurement] = []
    for n_partitions in (1, 2, 5, 10, 20, 50):
        plan = query4(gen, window)
        m = run_once(plan, events,
                     ExecutionConfig(mode=Mode.UPA,
                                     n_partitions=n_partitions),
                     "UPA", window)
        m.window = n_partitions  # row key is the partition count here
        results.append(m)
    print_table(f"E7 / Fig 15 — Query 4 (UPA), W={window}, "
                "time vs number of partitions", results,
                row_key="partitions")
    return results


def e8_cost_model(window: float = 400) -> list[tuple[str, float, float]]:
    """Cost-model validation: does the predicted per-unit-time cost rank
    Query 5's rewritings the same way measured work does?"""
    gen = make_generator()
    events = trace_for(window)
    catalog = Catalog(
        distinct_counts={(f"link{i}", attr): est
                         for i in range(4)
                         for attr, est in
                         gen.estimated_distincts(window).items()},
        premature_frequency=0.5,
    )
    model = CostModel(catalog)
    rows: list[tuple[str, float, float]] = []
    for plan_fn, tag in ((query5_pullup, "pull-up"),
                         (query5_pushdown, "push-down")):
        plan = plan_fn(gen, window)
        predicted = model.estimate(plan).total
        measured = run_once(
            plan, events,
            ExecutionConfig(mode=Mode.UPA, str_storage=STR_NEGATIVE),
            tag, window)
        rows.append((tag, predicted, measured.touches_per_tuple))
    print(f"\n== E8 — cost model vs measured (Query 5, W={window}) ==")
    print(f"{'plan':<12}{'predicted cost':>16}{'measured tch/ev':>18}")
    for tag, predicted, measured in rows:
        print(f"{tag:<12}{predicted:>16.1f}{measured:>18.1f}")
    predicted_order = [t for t, _p, _m in
                       sorted(rows, key=lambda r: r[1])]
    measured_order = [t for t, _p, _m in
                      sorted(rows, key=lambda r: r[2])]
    print(f"  predicted order: {predicted_order}; "
          f"measured order: {measured_order}; "
          f"agreement: {predicted_order == measured_order}")
    return rows


def e9_lazy_interval(window: float = 400) -> list[Measurement]:
    """Lazy-expiration-interval sensitivity (Section 6.1 notes longer
    intervals are slightly faster at higher memory)."""
    gen = make_generator()
    events = trace_for(window)
    results: list[Measurement] = []
    for fraction in (0.01, 0.05, 0.10, 0.20):
        plan = query1(gen, window, "telnet")
        m = run_once(plan, events,
                     ExecutionConfig(mode=Mode.UPA,
                                     lazy_interval=fraction * window),
                     "UPA", window)
        m.window = fraction
        results.append(m)
    print_table(f"E9 — Query 1 (telnet), W={window}, time vs lazy interval "
                "(fraction of window)", results, row_key="interval")
    return results


def e10_memory(window: float = 400) -> list[tuple[str, int, int, float]]:
    """Memory ablation (§5.4.2): peak state across strategies and against
    the lazy interval and δ-vs-standard duplicate elimination."""
    from repro import ContinuousQuery

    gen = make_generator()
    events = trace_for(window)
    rows: list[tuple[str, int, int, float]] = []

    def run(label: str, plan, **cfg):
        # The registry's state gauges are the memory profile: every run
        # samples operator state and the view every ``sample_events`` events.
        query = ContinuousQuery(plan, ExecutionConfig(**cfg))
        query.executor.sample_events = 50
        result = query.run(iter(events))
        rows.append((label, result.metrics.value("state_tuples_peak"),
                     result.metrics.value("view_results_peak"),
                     result.time_per_1000() * 1000.0))

    run("Q1/NT", query1(gen, window, "telnet"), mode=Mode.NT)
    run("Q1/DIRECT", query1(gen, window, "telnet"), mode=Mode.DIRECT)
    run("Q1/UPA", query1(gen, window, "telnet"), mode=Mode.UPA)
    run("Q1/UPA lazy=1%", query1(gen, window, "telnet"), mode=Mode.UPA,
        lazy_interval=0.01 * window)
    run("Q1/UPA lazy=25%", query1(gen, window, "telnet"), mode=Mode.UPA,
        lazy_interval=0.25 * window)
    run("Q2/standard (DIRECT)", query2(gen, window), mode=Mode.DIRECT)
    run("Q2/delta (UPA)", query2(gen, window), mode=Mode.UPA)

    print(f"\n== E10 — memory ablation (W={window}) ==")
    print(f"{'configuration':<24}{'peak state':>12}{'peak view':>12}"
          f"{'ms/1k':>10}")
    for label, state, view, ms in rows:
        print(f"{label:<24}{state:>12}{view:>12}{ms:>10.2f}")
    return rows


def e11_reeval_baseline() -> list[Measurement]:
    """Ablation: incremental maintenance vs from-scratch periodic
    re-evaluation (refresh interval = tuple inter-arrival, i.e. an always-
    fresh recompute, plus a relaxed 5%-of-window refresh)."""
    from repro.engine.reeval import ReEvaluationQuery

    gen = make_generator()
    results: list[Measurement] = []
    for window in windows():
        events = trace_for(window)
        plan = query1(gen, window, "telnet")
        upa = run_once(plan, events, ExecutionConfig(mode=Mode.UPA),
                       "UPA", window)
        results.append(upa)
        for interval, label in ((0.0, "REEVAL-fresh"),
                                (0.05 * window, "REEVAL-5pct")):
            reeval = ReEvaluationQuery(query1(gen, window, "telnet"),
                                       refresh_interval=interval)
            r = reeval.run(iter(events))
            results.append(Measurement(
                label=label, window=window, events=r.events_processed,
                time_ms_per_1000=r.time_per_1000() * 1000.0,
                touches_per_tuple=r.touches_per_tuple(),
                answer_size=sum(r.answer().values()),
            ))
    print_table("E11 — incremental (UPA) vs from-scratch re-evaluation, "
                "Query 1 (telnet)", results)
    return results


def e13_shard_scaling() -> list[Measurement]:
    """Shard-scaling sweep (extension): Queries 1, 3 and 4 under UPA with
    k key-routed shard pipelines on the forked process backend.

    ``k=1`` is the unsharded baseline (the sharded path short-circuits to
    the inline executor).  Every sharded run is asserted answer-identical
    to its baseline — the speedup is never bought with approximation.  On
    a single-core host the sweep degenerates into a measurement of the
    routing + IPC overhead; the per-core speedup claim is only meaningful
    (and only asserted, in ``benchmarks/test_e13_shard_scaling.py``) when
    ``os.cpu_count() >= 2``.
    """
    import os

    queries = (("Q1", lambda gen, w: query1(gen, w, "telnet")),
               ("Q3", query3),
               ("Q4", query4))
    results: list[Measurement] = []
    gen = make_generator()
    for window in windows():
        events = trace_for(window)
        for tag, plan_fn in queries:
            baseline_answer = None
            for shards in (1, 2, 4, 8):
                from repro import ContinuousQuery
                query = ContinuousQuery(plan_fn(gen, window),
                                        ExecutionConfig(mode=Mode.UPA))
                result = query.run(iter(events), batch=64, shards=shards,
                                   shard_backend="process")
                if shards == 1:
                    baseline_answer = result.answer()
                else:
                    assert result.answer() == baseline_answer, (
                        f"{tag} W={window} k={shards}: sharded answer "
                        "diverged from unsharded")
                results.append(Measurement(
                    label=f"{tag} k={shards}",
                    window=window,
                    events=result.events_processed,
                    time_ms_per_1000=result.time_per_1000() * 1000.0,
                    touches_per_tuple=result.touches_per_tuple(),
                    answer_size=sum(result.answer().values()),
                ))
    print_table(
        f"E13 — shard scaling (process backend, batch=64, "
        f"{os.cpu_count()} core(s))", results)
    return results


#: Chunk sizes measured by the transport micro-cells (DEFAULT_CHUNK and the
#: batch=64 size the E13 sweep ships).
TRANSPORT_CHUNKS = (64, 256)

#: Shard count of the transport micro-cells (the E13 sweep's middle cell).
TRANSPORT_SHARDS = 4


def transport_cost() -> list[Measurement]:
    """Per-chunk shard-transport cost: fused routed shm codec vs pickle.

    Replays the E13 trace's global chunks through both transports end to
    end at :data:`TRANSPORT_SHARDS` shards — everything between "the
    parent holds a global chunk" and "every worker holds a processable
    :class:`ChunkTable`":

    * ``transport/shm``: ONE fused route+encode of the global chunk
      (``encode_routed`` — routing hash inlined, shared ts timeline,
      value columns concatenated shard-major, each value packed once, no
      per-shard event lists or Tick materialization), one segment write,
      then per shard: the tiny ``("cshard", nbytes, header)`` message over
      a real :func:`multiprocessing.Pipe` and ``decode_routed`` over the
      segment.
    * ``transport/pickle``: ``route_chunk`` (per-shard event lists with
      foreign arrivals re-materialized as ticks), then per shard:
      compact-encode the shard's events, send the full ``("chunk", ...)``
      message over the same real pipes, and re-materialize the events —
      the batch a worker driver takes as it is.

    Both sides pay genuine pipe syscalls and copies (one pipe pair per
    shard, drained synchronously per chunk, so in-flight bytes stay far
    below the pipe buffer), and both stop where a worker driver takes the
    batch: a constructed :class:`ChunkTable` whose ``group_values``
    decodes per-shard column slices on demand, or the event list.  The
    ``*/eager`` variants extend both sides through every owned stream's
    value rows (``group_values``, or the per-stream grouping a column
    prelude makes of an event list), so the deferred string/number
    decoding the shm path pushes into the prelude is also on the
    record.  Costs are per 1000 *global*
    timeline rows (each shard sees the whole timeline, so global rows are
    the common denominator).  Each transport is the minimum over
    interleaved rounds; the ``window`` field carries the chunk size.
    ``benchmarks/test_columnar_speedup.py`` gates the lazy-boundary ratio
    at ``DEFAULT_CHUNK``.
    """
    import multiprocessing
    import time as _time

    from repro.core.sharding import analyze_partitionability
    from repro.engine.columnar import decode_routed, encode_routed
    from repro.engine.shard import ShardRouter, _decode_event, _encode_event
    from repro.workloads import query1

    gen = make_generator()
    part = analyze_partitionability(query1(gen, 400.0))
    events = [e for e in trace_for(400)]
    results: list[Measurement] = []
    pipes = [multiprocessing.Pipe() for _ in range(TRANSPORT_SHARDS)]
    try:
        for chunk_size in TRANSPORT_CHUNKS:
            router = ShardRouter(part.keys, TRANSPORT_SHARDS)
            key_index = router._index
            chunks = [events[i:i + chunk_size]
                      for i in range(0, len(events), chunk_size)]
            segment = bytearray(1 << 20)  # stand-in for the shm segment
            n = len(events)

            def shm_round(eager):
                start = _time.perf_counter()
                for chunk in chunks:
                    payload, headers, _arrivals, _broadcasts = encode_routed(
                        chunk, key_index, TRANSPORT_SHARDS)
                    nbytes = len(payload)
                    segment[:nbytes] = payload
                    for (parent, _), header in zip(pipes, headers):
                        parent.send(("cshard", nbytes, header))
                    for _, worker in pipes:
                        message = worker.recv()
                        table = decode_routed(
                            memoryview(segment)[:message[1]], message[2])
                        if eager:
                            for stream in table.groups():
                                table.group_values(stream)
                return _time.perf_counter() - start

            def pickle_round(eager):
                start = _time.perf_counter()
                for chunk in chunks:
                    per_shard = router.route_chunk(chunk)
                    for (parent, _), shard_events in zip(pipes, per_shard):
                        parent.send(
                            ("chunk",
                             [_encode_event(e) for e in shard_events]))
                    for _, worker in pipes:
                        message = worker.recv()
                        decoded = [_decode_event(r) for r in message[1]]
                        if eager:
                            groups: dict = {}
                            for event in decoded:
                                if event.__class__ is Arrival:
                                    groups.setdefault(
                                        event.stream, []).append(event.values)
                return _time.perf_counter() - start

            cells = (("transport/shm", shm_round, False),
                     ("transport/pickle", pickle_round, False),
                     ("transport/shm-eager", shm_round, True),
                     ("transport/pickle-eager", pickle_round, True))
            for _, fn, eager in cells:
                fn(eager)  # warm-up, discarded
            best: dict = {}
            for _ in range(3):  # interleaved rounds, min per cell
                for label, fn, eager in cells:
                    seconds = fn(eager)
                    if label not in best or seconds < best[label]:
                        best[label] = seconds
            for label, _, _ in cells:
                results.append(Measurement(
                    label=label, window=chunk_size, events=n,
                    time_ms_per_1000=best[label] / n * 1000.0 * 1000.0,
                    touches_per_tuple=0.0, answer_size=0))
    finally:
        for parent, worker in pipes:
            parent.close()
            worker.close()
    return results


def columnar_speedup() -> list[Measurement]:
    """Shard-transport audit: :func:`transport_cost`'s micro-cells,
    tabulated.

    The chunk plane's micro-batch loop is chosen by the driver from the
    program, so there is no twin to race it against here;
    ``benchmarks/e2e`` holds workloads on both sides of that choice and
    ``python -m benchmarks.e2e --compare`` is the regression gate.  The
    transport's pickle side is a live fallback (no shared memory,
    unrepresentable chunks), which is why this comparison stays.
    """
    transport = transport_cost()
    print_table("COLUMNAR — per-chunk shard transport, shm codec vs "
                "pickle pipe", transport, row_key="chunk")
    return transport


EXPERIMENTS = {
    "e1": e1_query1_ftp,
    "e2": e2_query1_telnet,
    "e3": e3_query2_distinct,
    "e4": e4_query3_negation,
    "e5": e5_query4_distinct_join,
    "e6": e6_query5_rewritings,
    "e7": e7_partition_sweep,
    "e8": e8_cost_model,
    "e9": e9_lazy_interval,
    "e10": e10_memory,
    "e11": e11_reeval_baseline,
    "e13": e13_shard_scaling,
    "columnar": columnar_speedup,
}
