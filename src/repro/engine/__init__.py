"""Execution engine: strategies, driver, views and the query facade."""

from .executor import GroupRunResult, RunResult
from .multi import QueryGroup
from .query import ContinuousQuery, run_query
from .shard import ShardRouter, analyze_group_partitionability, stable_hash
from .sharing import SharedProducer
from .strategies import (
    CompiledQuery,
    ExecutionConfig,
    Mode,
    compile_plan,
)
from .views import AppendView, BufferView, ResultView

__all__ = [
    "RunResult",
    "GroupRunResult",
    "QueryGroup",
    "ContinuousQuery",
    "run_query",
    "SharedProducer",
    "ShardRouter",
    "analyze_group_partitionability",
    "stable_hash",
    "CompiledQuery",
    "ExecutionConfig",
    "Mode",
    "compile_plan",
    "AppendView",
    "BufferView",
    "ResultView",
]
