"""Execution engine: strategies, executor, views and the query facade."""

from .executor import Executor, RunResult
from .multi import GroupRunResult, QueryGroup
from .reeval import ReEvalResult, ReEvaluationQuery
from .query import ContinuousQuery, run_query
from .shard import (
    ShardedExecutor,
    ShardedGroupRunResult,
    ShardedRunResult,
    ShardRouter,
    analyze_group_partitionability,
    run_group_sharded,
    stable_hash,
)
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
    "Executor",
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
    "ShardedExecutor",
    "ShardedGroupRunResult",
    "ShardedRunResult",
    "ShardRouter",
    "analyze_group_partitionability",
    "run_group_sharded",
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
