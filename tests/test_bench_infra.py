"""Tests for the benchmark infrastructure itself (benchmarks/common.py)."""

import dataclasses

import pytest

from repro import ExecutionConfig, Mode
from repro.workloads import TrafficConfig, query2

from benchmarks.common import (
    BENCH_TRAFFIC,
    Measurement,
    make_generator,
    print_table,
    run_once,
    speedup_summary,
    standard_strategies,
    sweep,
    trace_for,
)


class TestTraceCache:
    def test_same_config_same_trace_object(self):
        a = trace_for(60)
        b = trace_for(60)
        assert a is b  # cached

    def test_value_equal_configs_share_cache(self):
        """The cache keys on config *values* — two equal config objects must
        hit the same entry (guards against the id()-reuse bug)."""
        c1 = dataclasses.replace(BENCH_TRAFFIC)
        c2 = dataclasses.replace(BENCH_TRAFFIC)
        assert trace_for(60, c1) is trace_for(60, c2)

    def test_different_overlap_different_trace(self):
        c1 = dataclasses.replace(BENCH_TRAFFIC, ip_overlap=0.0)
        assert trace_for(60, c1) is not trace_for(60)

    def test_trace_sized_to_window(self):
        events = trace_for(50)
        # 3 window-lengths × 4 links at rate 1.
        assert len(events) == 600


class TestRunners:
    def test_run_once_measurement_fields(self):
        gen = make_generator()
        events = trace_for(50)
        m = run_once(query2(gen, 50), events,
                     ExecutionConfig(mode=Mode.UPA), "UPA", 50)
        assert m.events == len(events)
        assert m.time_ms_per_1000 >= 0
        assert m.touches_per_tuple > 0
        assert m.answer_size > 0
        assert m.row()[0] == "UPA"

    def test_sweep_covers_grid(self):
        results = sweep(query2, standard_strategies(Mode.UPA, Mode.NT),
                        window_sizes=(40, 80))
        assert len(results) == 4
        assert {m.label for m in results} == {"UPA", "NT"}
        assert {m.window for m in results} == {40, 80}

    def test_speedup_summary(self):
        results = [
            Measurement("A", 10, 100, 1.0, 50.0, 5),
            Measurement("B", 10, 100, 1.0, 5.0, 5),
            Measurement("A", 20, 100, 1.0, 100.0, 5),
            Measurement("B", 20, 100, 1.0, 10.0, 5),
        ]
        ratios = speedup_summary(results, "A", "B")
        assert ratios == {10: 10.0, 20: 10.0}

    def test_print_table_renders_all_cells(self, capsys):
        results = [
            Measurement("A", 10, 100, 1.23, 4.5, 5),
            Measurement("B", 10, 100, 6.78, 9.0, 5),
        ]
        print_table("demo", results)
        out = capsys.readouterr().out
        assert "demo" in out
        assert "A ms/1k" in out and "B tch/tup" in out
        assert "1.23" in out and "9.0" in out

    def test_print_table_marks_missing_cells(self, capsys):
        results = [
            Measurement("A", 10, 100, 1.0, 2.0, 5),
            Measurement("B", 20, 100, 3.0, 4.0, 5),
        ]
        print_table("sparse", results)
        assert "--" in capsys.readouterr().out
