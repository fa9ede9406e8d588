"""Second round of targeted tests for remaining thin spots."""

from collections import Counter

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    CountWindow,
    ExecutionConfig,
    Join,
    Mode,
    Negation,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    WindowScan,
    count,
    from_window,
)
from repro.engine.strategies import compile_plan

V = Schema(["v"])


def scan(name, window=10):
    return WindowScan(StreamDef(name, V, TimeWindow(window)))


class TestCountDomainEdges:
    def test_ticks_do_not_advance_count_clock(self):
        stream = StreamDef("s", V, CountWindow(2))
        query = ContinuousQuery(from_window(stream).build())
        ex = query.executor
        ex.process_event(Arrival(1, "s", (1,)))
        ex.process_event(Arrival(2, "s", (2,)))
        ex.process_event(Tick(100))   # wall time passes; count clock frozen
        assert sum(query.answer().values()) == 2

    def test_foreign_stream_does_not_advance_count_clock(self):
        stream = StreamDef("s", V, CountWindow(2))
        query = ContinuousQuery(from_window(stream).build())
        ex = query.executor
        ex.process_event(Arrival(1, "s", (1,)))
        for i in range(5):  # unrelated stream: skipped, clock frozen
            ex.process_event(Arrival(2 + i, "other", (9,)))
        assert sum(query.answer().values()) == 1


class TestJoinAboveNegationBuffers:
    def test_upa_keeps_pattern_buffers_around_a_negation(self):
        """Under UPA a join above a negation stores its STR input
        partitioned and its WKS input in a FIFO; the negation below
        expires itself."""
        from repro.buffers import FifoBuffer, PartitionedBuffer
        from repro.operators import NegationFifoOp
        neg = Negation(scan("a"), scan("b"), "v")
        plan = Join(neg, scan("c"), "v", "v")
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        left, right = compiled.op_for(plan).buffers
        assert isinstance(left, PartitionedBuffer)
        assert isinstance(right, FifoBuffer)
        neg_op = compiled.op_for(neg)
        assert isinstance(neg_op, NegationFifoOp)
        assert neg_op in compiled.expire_ops


class TestCliErrorPaths:
    def test_missing_trace_file(self, capsys):
        from repro.cli import main
        with pytest.raises(FileNotFoundError):
            main(["run", "SELECT * FROM link0 [RANGE 5]",
                  "--trace", "/nonexistent/trace.tsv"])

    def test_bad_query_reports_plan_error(self, tmp_path, capsys):
        """The PlanError is the user's: one ``repro: error:`` line on
        stderr and argparse's usage-error status, no traceback."""
        from repro.cli import main
        trace = tmp_path / "t.tsv"
        main(["generate", "--tuples", "10", "--out", str(trace)])
        capsys.readouterr()
        assert main(["run", "SELECT zzz FROM link0 [RANGE 5]",
                     "--trace", str(trace)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro: error: ") and "zzz" in line


class TestGroupByEdgeCases:
    def test_group_reappears_after_emptying(self):
        stream = StreamDef("s", V, TimeWindow(5))
        plan = from_window(stream).group_by(["v"], [count("n")]).build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        ex = query.executor
        ex.process_event(Arrival(0, "s", ("g",)))
        ex.process_event(Tick(6))          # group empties
        assert query.answer() == Counter()
        ex.process_event(Arrival(7, "s", ("g",)))  # group reborn
        assert query.answer() == Counter({("g", 1): 1})

    def test_min_max_follow_expiry_order(self):
        from repro import agg_min, agg_max
        stream = StreamDef("s", V, TimeWindow(5))
        plan = from_window(stream).aggregate(agg_min("v"),
                                             agg_max("v")).build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        ex = query.executor
        ex.process_event(Arrival(0, "s", (9,)))
        ex.process_event(Arrival(1, "s", (3,)))
        ex.process_event(Arrival(2, "s", (6,)))
        assert list(query.answer()) == [(3, 9)]
        ex.process_event(Tick(5.5))        # the 9 expires
        assert list(query.answer()) == [(3, 6)]
        ex.process_event(Tick(6.5))        # the 3 expires
        assert list(query.answer()) == [(6, 6)]


class TestSubscriberInteractionWithRelations:
    def test_relation_delete_reaches_subscribers(self):
        from repro import Relation, RelationUpdate
        rel = Relation("r", Schema(["k", "m"]), [(1, "x")])
        stream = StreamDef("s", V, TimeWindow(10))
        plan = (from_window(stream)
                .join_relation(rel, on="v", rel_on="k").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        deltas = []
        query.subscribe(lambda t, now: deltas.append(t.sign))
        query.executor.process_event(Arrival(1, "s", (1,)))
        query.executor.process_event(
            RelationUpdate(2, "r", "delete", (1, "x")))
        assert deltas == [1, -1]


class TestNegationWindowMismatchGolden:
    """Different window sizes on the two negation inputs exercise the
    re-admission machinery precisely."""

    def test_short_lived_suppressor(self):
        a = StreamDef("a", V, TimeWindow(20))
        b = StreamDef("b", V, TimeWindow(2))
        plan = from_window(a).minus(from_window(b), on="v").build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        ex = query.executor
        ex.process_event(Arrival(0, "a", ("x",)))
        for i in range(5):
            # Each b-tuple suppresses for 2 units, then x re-emerges.
            ex.process_event(Arrival(3 * i + 1, "b", ("x",)))
            assert query.answer() == Counter()
            ex.process_event(Tick(3 * i + 3.5))
            assert query.answer() == Counter({("x",): 1})
