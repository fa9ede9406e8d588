"""Execution engine: strategies, driver, views and the query facade."""

from .executor import GroupRunResult, RunResult
from .multi import QueryGroup
from .reeval import ReEvalResult, ReEvaluationQuery
from .query import ContinuousQuery, run_query
from .shard import ShardRouter, analyze_group_partitionability, stable_hash
from .sharing import SharedProducer, SharedRuntime, build_shared_runtime
from .strategies import (
    STR_AUTO,
    STR_NEGATIVE,
    STR_PARTITIONED,
    CompiledQuery,
    ExecutionConfig,
    Mode,
    compile_plan,
)
from .views import AppendView, BufferView, GroupView, ResultView

__all__ = [
    "RunResult",
    "GroupRunResult",
    "QueryGroup",
    "ReEvalResult",
    "ReEvaluationQuery",
    "ContinuousQuery",
    "run_query",
    "SharedProducer",
    "SharedRuntime",
    "build_shared_runtime",
    "ShardRouter",
    "analyze_group_partitionability",
    "stable_hash",
    "STR_AUTO",
    "STR_NEGATIVE",
    "STR_PARTITIONED",
    "CompiledQuery",
    "ExecutionConfig",
    "Mode",
    "compile_plan",
    "AppendView",
    "BufferView",
    "GroupView",
    "ResultView",
]
