"""Command-line interface: run a continuous query over a trace file.

Usage::

    python -m repro run "SELECT DISTINCT src_ip FROM link0 [RANGE 100]" \
        --trace trace.tsv --mode upa --top 10
    python -m repro generate --tuples 5000 --out trace.tsv
    python -m repro explain "SELECT * FROM link0 [RANGE 50] JOIN link1 \
        [RANGE 50] ON link0.src_ip = link1.src_ip"

A user error (an unknown stream, ``--batch 0``, a plan the mode rejects)
prints one ``repro: error: ...`` line and exits with status 2.

The trace format is the TSV written by :mod:`repro.workloads.trace_io` (and
by the ``generate`` subcommand).  Streams named in the query are resolved
against the traffic schema by default; ``--streams name:attr1,attr2`` can
declare custom schemas for other traces.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter as Multiset

from .core.tuples import Schema
from .engine.multi import QueryGroup
from .engine.query import ContinuousQuery
from .engine.strategies import ExecutionConfig, Mode
from .errors import ReproError
from .lang.catalog import SourceCatalog
from .lang.compiler import compile_query
from .workloads.trace_io import read_trace, write_trace
from .workloads.traffic import TRAFFIC_SCHEMA, TrafficConfig, TrafficTraceGenerator


def _build_catalog(args) -> SourceCatalog:
    catalog = SourceCatalog()
    if args.streams:
        for spec in args.streams:
            name, _, attrs = spec.partition(":")
            if not attrs:
                raise SystemExit(
                    f"--streams expects name:attr1,attr2 — got {spec!r}"
                )
            catalog.add_stream(name, Schema(attrs.split(",")))
    else:
        for link in range(args.links):
            catalog.add_stream(f"link{link}", TRAFFIC_SCHEMA)
    return catalog


def _report_sharding(result) -> None:
    """One status line about sharded execution, when it was requested."""
    if result.fallback_reason:
        print(f"sharding: fell back to unsharded execution — "
              f"{result.fallback_reason}")
    elif result.shards > 1:
        print(f"sharding: {result.shards} shards via {result.backend} "
              f"backend, arrivals per shard {result.per_shard_arrivals}")


def _write_metrics(args, result, run_info: dict) -> None:
    """Export the run's metrics registry as --metrics-out JSON."""
    from .engine.telemetry import write_metrics_json

    series = write_metrics_json(args.metrics_out, result.metrics, run_info)
    print(f"metrics: wrote {series} series to {args.metrics_out}")


def _print_sample(answer: Multiset, top: int) -> None:
    """Most frequent first, ties by value — never by the view's storage
    order, which the schedule (per tuple, batched, sharded) decides."""
    ranked = sorted(answer.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    for values, count in ranked[:top] if top else ranked:
        suffix = f"  x{count}" if count > 1 else ""
        print(f"  {values}{suffix}")
    if top and len(answer) > top:
        print(f"  ... ({len(answer) - top} more)")


def _cmd_run(args) -> int:
    catalog = _build_catalog(args)
    plan = compile_query(args.query, catalog)
    config = ExecutionConfig(mode=Mode(args.mode),
                             n_partitions=args.partitions)
    query = ContinuousQuery(plan, config)
    if args.explain:
        print(query.explain())
        print()
    events = read_trace(args.trace)
    result = query.run(events, batch=args.batch, shards=args.shards,
                       shard_backend=args.shard_backend)
    answer: Multiset = result.answer()
    print(f"processed {result.events_processed} events "
          f"({result.tuples_arrived} tuples) in {result.elapsed:.3f}s "
          f"({result.time_per_1000()*1000:.2f} ms / 1000 tuples, "
          f"{result.touches_per_tuple():.1f} state touches / tuple)")
    _report_sharding(result)
    if args.metrics_out:
        _write_metrics(args, result, {
            "command": "run", "query": args.query, "mode": args.mode,
            "batch": args.batch, "shards": args.shards,
            "events": result.events_processed,
            "tuples": result.tuples_arrived,
            "elapsed_seconds": result.elapsed,
        })
    print(f"{sum(answer.values())} live result tuple(s), "
          f"{len(answer)} distinct")
    _print_sample(answer, args.top)
    return 0


def _cmd_run_group(args) -> int:
    catalog = _build_catalog(args)
    config = ExecutionConfig(mode=Mode(args.mode),
                             n_partitions=args.partitions)
    group = QueryGroup()
    for index, text in enumerate(args.queries, start=1):
        group.add_text(f"q{index}", text, catalog, config)
    if args.explain:
        print(group.explain())
        print()
    events = read_trace(args.trace)
    result = group.run(events, batch=args.batch, shards=args.shards,
                       shard_backend=args.shard_backend)
    print(f"processed {result.events_processed} events "
          f"({result.tuples_arrived} tuples) through {len(group)} "
          f"queries in {result.elapsed:.3f}s "
          f"({result.time_per_1000()*1000:.2f} ms / 1000 tuples)")
    _report_sharding(result)
    if args.metrics_out:
        _write_metrics(args, result, {
            "command": "run-group", "queries": list(args.queries),
            "mode": args.mode, "batch": args.batch, "shards": args.shards,
            "events": result.events_processed,
            "tuples": result.tuples_arrived,
            "elapsed_seconds": result.elapsed,
        })
    touches = result.touches()
    if result.shards == 1:  # replicas run every member's whole plan
        print(f"shared state: {group.shared_state_size()} tuples, "
              f"{result.shared_touches()} touches "
              f"(+{sum(touches.values())} residual) across "
              f"{len(group.shared_producers())} shared subplan(s)")
    for name in group.names():
        answer: Multiset = result.answer(name)
        print(f"-- {name}: {sum(answer.values())} live result tuple(s), "
              f"{len(answer)} distinct, {touches[name]} state touches")
        _print_sample(answer, args.top)
    return 0


def _cmd_generate(args) -> int:
    config = TrafficConfig(n_links=args.links, n_src_ips=args.ips,
                           ip_overlap=args.overlap, seed=args.seed)
    generator = TrafficTraceGenerator(config)
    n = write_trace(args.out, generator.events(args.tuples))
    print(f"wrote {n} tuples across {args.links} links to {args.out}")
    return 0


def _cmd_explain(args) -> int:
    """The annotated plan and its footers, then the state certificate
    (each slot's bound class, size, horizon and buffer, and the
    per-unit-time cost)."""
    catalog = _build_catalog(args)
    plan = compile_query(args.query, catalog)
    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode(args.mode)))
    print(query.explain())
    print(query.compiled.certificate.render())
    return 0


def _cmd_validate(args) -> int:
    """Check Definition 1 after every event of the trace (test oracle)."""
    from .testing import EquivalenceError, check_plan

    catalog = _build_catalog(args)
    plan = compile_query(args.query, catalog)
    events = list(read_trace(args.trace))
    try:
        comparisons = check_plan(plan, events, Mode(args.mode))
    except EquivalenceError as error:
        print(f"FAILED: {error}")
        return 1
    print(f"OK: {comparisons} per-event comparisons against the relational "
          f"oracle under mode={args.mode}")
    return 0


def _add_catalog_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--links", type=int, default=4,
                        help="declare linkN traffic streams (default 4)")
    parser.add_argument("--streams", nargs="*", metavar="NAME:ATTRS",
                        help="custom stream schemas, e.g. quotes:symbol,price")
    parser.add_argument("--mode", choices=[m.value for m in Mode],
                        default="upa", help="execution strategy")


def _add_metrics_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the run's labeled metrics registry "
                             "(per-operator timers, state gauges, shard "
                             "decomposition) as JSON (schema "
                             "repro.metrics/v1)")


def _add_shard_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=None, metavar="K",
                        help="run K key-routed shard pipelines in parallel "
                             "(unshardable plans fall back with a note)")
    parser.add_argument("--shard-backend", default="process",
                        choices=["serial", "process"],
                        help="in-process reference backend or forked "
                             "worker pool (default: process)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Update-pattern-aware continuous query processor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a query over a trace file")
    run.add_argument("query")
    run.add_argument("--trace", required=True, help="TSV trace file")
    run.add_argument("--partitions", type=int, default=10)
    run.add_argument("--batch", type=int, default=None, metavar="N",
                     help="micro-batch size for amortized expiration "
                          "(default: per-tuple processing; outputs are "
                          "identical either way)")
    run.add_argument("--top", type=int, default=20,
                     help="show only the N most frequent results (0 = all)")
    run.add_argument("--explain", action="store_true",
                     help="print the annotated plan before running")
    _add_catalog_options(run)
    _add_shard_options(run)
    _add_metrics_option(run)
    run.set_defaults(func=_cmd_run)

    run_group = sub.add_parser(
        "run-group",
        help="run several queries over one trace, sharing common subplans")
    run_group.add_argument("queries", nargs="+", metavar="QUERY",
                           help="query texts; named q1..qN in the report")
    run_group.add_argument("--trace", required=True, help="TSV trace file")
    run_group.add_argument("--partitions", type=int, default=10)
    run_group.add_argument("--batch", type=int, default=None, metavar="N",
                           help="micro-batch size (amortized expiration, "
                                "once per shared subplan)")
    run_group.add_argument("--top", type=int, default=5,
                           help="show only the N most frequent results "
                                "per query (0 = all)")
    run_group.add_argument("--explain", action="store_true",
                           help="print the fused group DAG before running")
    _add_catalog_options(run_group)
    _add_shard_options(run_group)
    _add_metrics_option(run_group)
    run_group.set_defaults(func=_cmd_run_group)

    generate = sub.add_parser("generate",
                              help="write a synthetic traffic trace")
    generate.add_argument("--tuples", type=int, default=5000)
    generate.add_argument("--links", type=int, default=4)
    generate.add_argument("--ips", type=int, default=150)
    generate.add_argument("--overlap", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    explain = sub.add_parser(
        "explain",
        help="print a query's annotated plan and state certificate")
    explain.add_argument("query")
    _add_catalog_options(explain)
    explain.set_defaults(func=_cmd_explain)

    validate = sub.add_parser(
        "validate",
        help="compare the engine against the relational oracle on a trace")
    validate.add_argument("query")
    validate.add_argument("--trace", required=True)
    _add_catalog_options(validate)
    validate.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        # A user error (unknown stream, bad knob, a plan the mode
        # rejects): one line and argparse's usage-error status.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
