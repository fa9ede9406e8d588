"""E6 / Figure 14: Query 5 — negation pull-up versus push-down."""

import pytest

from repro import ExecutionConfig, Mode
from repro.workloads import query5_pullup, query5_pushdown

from .bench_util import bench

PLANS = [("pull-up", query5_pullup), ("push-down", query5_pushdown)]


@pytest.mark.parametrize("label,plan_fn", PLANS, ids=[p[0] for p in PLANS])
def test_query5_upa(benchmark, label, plan_fn):
    bench(benchmark, plan_fn, ExecutionConfig(mode=Mode.UPA))


@pytest.mark.parametrize("label,plan_fn", PLANS, ids=[p[0] for p in PLANS])
def test_query5_nt(benchmark, label, plan_fn):
    bench(benchmark, plan_fn, ExecutionConfig(mode=Mode.NT))
