"""Tests for the experiments' measurer itself (benchmarks/experiments.py)."""

import dataclasses

import pytest

from repro import ContinuousQuery, ExecutionConfig, Mode
from repro.workloads import query2

from benchmarks.experiments import (
    BENCH_TRAFFIC,
    SweepPoint,
    make_generator,
    paired_sweep,
    print_sweep,
    strategy,
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


UPA_NT = [strategy("UPA", mode=Mode.UPA), strategy("NT", mode=Mode.NT)]
Q2 = [("Q2", query2)]


class TestRunners:
    def test_sweep_covers_grid(self):
        points = paired_sweep(Q2, UPA_NT, pairs=3, overlaps=(0.0, 1.0),
                              windows=(40, 80), batches=(None, 16))
        assert [(p.overlap, p.window, p.batch) for p in points] == [
            (o, w, b) for o in (0.0, 1.0) for w in (40, 80)
            for b in (None, 16)]
        for point in points:
            assert {label: len(runs) for label, runs in point.runs.items()} \
                == {"UPA": 3, "NT": 3}
            assert point.touches["UPA"] > 0 and point.touches["NT"] > 0

    def test_pairs_alternate_the_order(self):
        order = []

        def tracing(label):
            def make_query(plan):
                order.append(label)
                return ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
            return label, make_query

        paired_sweep(Q2, [tracing("A"), tracing("B")], pairs=4,
                     windows=(20,))
        assert order == ["A", "B", "B", "A", "A", "B", "B", "A"]

    def test_disagreeing_strategies_raise(self):
        gen = make_generator()
        other = ("pairs", lambda plan: ContinuousQuery(
            query2(gen, 40, pairs=True), ExecutionConfig(mode=Mode.UPA)))
        with pytest.raises(AssertionError, match="strategies disagree"):
            paired_sweep(Q2, [UPA_NT[0], other], pairs=1, windows=(40,))

    def test_resolved_win_needs_nine_in_ten_and_a_gap_beyond_the_iqr(self):
        point = SweepPoint("p", 0.5, 100, None,
                           {"A": [1.0] * 9 + [3.0], "B": [2.0] * 10}, {})
        assert point.wins("A", "B") == 9
        assert point.resolved_win("A", "B")
        assert not point.resolved_win("B", "A")
        point.runs["B"] = [1.1] * 5 + [3.0] * 5  # IQR 1.9 > gap 1.05
        assert not point.resolved_win("A", "B")

    def test_print_table_renders_all_cells(self, capsys):
        point = SweepPoint("Q2", 0.5, 100, 64,
                           {"NT": [2.0, 2.0, 4.0, 4.0],
                            "UPA": [1.0, 1.0, 1.5, 1.5]},
                           {"NT": 9.0, "UPA": 4.5})
        print_sweep("demo", [point])
        out = capsys.readouterr().out
        assert "demo" in out and "÷ NT" in out
        nt_row, upa_row = out.splitlines()[-2:]
        assert nt_row.split() == ["Q2", "0.5", "100", "64", "NT", "3.00",
                                  "2.00", "9.0"]
        # Won every pair, but by a median gap (1.75) inside NT's IQR.
        assert upa_row.split()[4:] == ["UPA", "1.25", "0.50", "4.5",
                                       "0.42", "4/4", "no"]
