"""E7 / Figure 15: sensitivity to the number of state-buffer partitions.

Query 4 under UPA: its join inputs (δ output, WK) and its δ ⋈ δ result
view are partitioned buffers.  Query 1 telnet's only partitioned buffer
was the result view a bag ⋈ bag root no longer stores (EXPERIMENTS.md).
"""

import pytest

from repro import ExecutionConfig, Mode
from repro.workloads import query4

from .bench_util import bench


@pytest.mark.parametrize("n_partitions", [1, 5, 10, 50])
def test_partition_count(benchmark, n_partitions):
    bench(benchmark, query4,
          ExecutionConfig(mode=Mode.UPA, n_partitions=n_partitions))
