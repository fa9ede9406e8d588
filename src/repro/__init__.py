"""repro — update-pattern-aware processing of continuous queries.

A from-scratch reproduction of Golab & Özsu, "Update-Pattern-Aware Modeling
and Processing of Continuous Queries" (SIGMOD 2005): the update-pattern
classification (monotonic / WKS / WK / STR), continuous query semantics with
non-retroactive relations, and the update-pattern-aware query processor
compared against the negative-tuple and direct baselines.

Quickstart::

    from repro import (
        Schema, StreamDef, TimeWindow, from_window, attr_equals,
        ContinuousQuery, ExecutionConfig, Mode, arrivals,
    )

    link = StreamDef("link1", Schema(["src_ip", "proto"]), TimeWindow(10))
    plan = from_window(link).where(attr_equals("proto", "ftp")).build()
    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
    result = query.run(arrivals("link1", [(1, ("10.0.0.1", "ftp"))]))
    print(result.answer())
"""

from .core.annotate import AnnotatedPlan, annotate, explain, explain_dot
from .core.metrics import Counters, NullCounters
from .engine.telemetry import (
    METRICS_SCHEMA,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    metrics_document,
    validate_metrics_document,
    write_metrics_json,
)
from .core.patterns import MONOTONIC, STR, UpdatePattern, WK, WKS
from .core.plan import (
    AggregateSpec,
    DupElim,
    GroupBy,
    Intersect,
    Join,
    LogicalNode,
    Negation,
    NRRJoin,
    Predicate,
    PredicateBuilder,
    Project,
    RelationJoin,
    Rename,
    Select,
    SharedScan,
    Union,
    WindowScan,
    attr_equals,
)
from .core.fingerprint import fingerprint, fingerprint_all
from .core.semantics import ReferenceEvaluator
from .core.sharding import (
    Partitionability,
    StreamShardKey,
    analyze_partitionability,
)
from .core.stats import StatisticsCollector
from .core.tuples import NEGATIVE, NEVER, POSITIVE, Schema, Tuple
from .engine.executor import GroupRunResult, RunResult
from .engine.query import ContinuousQuery, run_query
from .engine.strategies import (
    CompiledQuery,
    ExecutionConfig,
    Mode,
    compile_plan,
)
from .engine.shard import (
    ShardRouter,
    analyze_group_partitionability,
    stable_hash,
)
from .errors import (
    ConfigError,
    ExecutionError,
    PlanError,
    ReproError,
    SchemaError,
    WorkloadError,
)
from .lang.builder import (
    QueryBuilder,
    agg_max,
    agg_min,
    agg_sum,
    avg,
    count,
    from_window,
    stddev,
    variance,
)
from .engine.multi import QueryGroup
from .engine.sharing import SharedProducer
from .engine.reeval import ReEvaluationQuery
from .lang.catalog import SourceCatalog
from .lang.compiler import QueryCompiler, compile_query
from .lang.parser import ParseError, parse
from .streams.relation import NRR, Relation
from .streams.reorder import ReorderBuffer
from .streams.stream import (
    Arrival,
    RelationUpdate,
    StreamDef,
    Tick,
    arrivals,
    merge_streams,
    with_heartbeats,
)
from .streams.window import CountWindow, TimeWindow

__version__ = "1.0.0"

__all__ = [
    "AnnotatedPlan", "annotate", "explain", "explain_dot", "Counters",
    "NullCounters",
    "METRICS_SCHEMA", "CounterMetric", "GaugeMetric", "HistogramMetric",
    "MetricsRegistry", "metrics_document",
    "validate_metrics_document", "write_metrics_json",
    "MONOTONIC", "STR", "UpdatePattern", "WK", "WKS",
    "AggregateSpec", "DupElim", "GroupBy", "Intersect", "Join",
    "LogicalNode", "Negation", "NRRJoin", "Predicate", "PredicateBuilder",
    "Project", "RelationJoin", "Rename", "Select", "SharedScan", "Union",
    "WindowScan",
    "attr_equals", "ReferenceEvaluator", "StatisticsCollector",
    "ReEvaluationQuery", "QueryGroup", "GroupRunResult",
    "SharedProducer",
    "fingerprint", "fingerprint_all",
    "NEGATIVE", "NEVER", "POSITIVE", "Schema", "Tuple",
    "RunResult", "ContinuousQuery", "run_query",
    "CompiledQuery", "ExecutionConfig", "Mode", "compile_plan",
    "ConfigError", "ExecutionError", "PlanError", "ReproError",
    "SchemaError", "WorkloadError",
    "Partitionability", "StreamShardKey", "analyze_partitionability",
    "ShardRouter", "analyze_group_partitionability", "stable_hash",
    "QueryBuilder", "agg_max", "agg_min", "agg_sum", "avg", "count",
    "from_window", "stddev", "variance",
    "SourceCatalog", "QueryCompiler", "compile_query", "ParseError", "parse",
    "NRR", "Relation", "ReorderBuffer",
    "Arrival", "RelationUpdate", "StreamDef", "Tick", "arrivals",
    "merge_streams", "with_heartbeats",
    "CountWindow", "TimeWindow",
    "__version__",
]
