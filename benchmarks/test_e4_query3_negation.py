"""E4 / Figure 12: Query 3 (negation) — STR results under NT and UPA."""

import pytest

from repro import ExecutionConfig, Mode
from repro.workloads import query3

from .bench_util import bench
from .experiments import E4_PLANS, paired_sweep

CONFIGS = [("nt", ExecutionConfig(mode=Mode.NT)),
           ("upa", ExecutionConfig(mode=Mode.UPA))]


@pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_query3_negation(benchmark, label, config):
    bench(benchmark, query3, config)


def test_sweep_grid_agrees_and_reports():
    """One pair per point of a small slice of E4's grid: every plan, both
    overlap extremes, per-tuple and batched — the two strategies must give
    the same answers (``paired_sweep`` raises otherwise)."""
    points = paired_sweep(
        [("NT", lambda: ExecutionConfig(mode=Mode.NT)),
         ("UPA", lambda: ExecutionConfig(mode=Mode.UPA))],
        pairs=2, overlaps=(0.0, 1.0), window_sizes=(20,))
    assert len(points) == len(E4_PLANS) * 2 * 2
    for point in points:
        assert all(len(runs) == 2 for runs in point.runs.values())
        assert point.touches["UPA"] > 0 and point.touches["NT"] > 0
