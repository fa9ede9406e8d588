"""Tests for the executor: clocks, ticks, lazy purging, dispatch rules."""

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    ExecutionError,
    Mode,
    RelationUpdate,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    attr_equals,
    count,
    from_window,
)

from conftest import fifo_negation_plan

V = Schema(["v"])


def stream(name="s0", window=10):
    return StreamDef(name, V, TimeWindow(window))


class TestClockDiscipline:
    @pytest.mark.parametrize("case", ["window", "fifo-negation"])
    def test_out_of_order_event_rejected(self, case):
        """Under the FIFO negation (Query 3's text) the regression is the
        input that would break its per-side arrival order."""
        plan = (fifo_negation_plan() if case == "fifo-negation"
                else from_window(stream()).build())
        query = ContinuousQuery(plan)
        assert (case == "fifo-negation") == (
            "negation: FIFO" in query.compiled.describe())
        query.executor.process_event(Arrival(5, "s0", (1,)))
        query.executor.process_event(Arrival(5, "s1", (2,)))
        with pytest.raises(ExecutionError, match="out-of-order"):
            query.executor.process_event(Arrival(3, "s0", (2,)))
        assert query.executor.now == 5

    def test_equal_timestamps_allowed(self):
        query = ContinuousQuery(from_window(stream()).build())
        query.executor.process_event(Arrival(5, "s0", (1,)))
        query.executor.process_event(Arrival(5, "s0", (2,)))
        assert sum(query.answer().values()) == 2

    def test_operator_clocks_advance(self):
        query = ContinuousQuery(from_window(stream()).build())
        query.run([Arrival(5, "s0", (1,))])
        for op in query.compiled.ops.values():
            assert op.clock == 5


class TestTicks:
    def test_tick_expires_without_arrivals(self):
        """Section 2.3: an aggregate can change purely through expiration."""
        plan = from_window(stream()).aggregate(count("n")).build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        query.executor.process_event(Arrival(0, "s0", (1,)))
        assert list(query.answer()) == [(1,)]
        query.executor.process_event(Tick(10))
        assert len(query.answer()) == 0

    def test_tick_purges_direct_view(self):
        plan = (from_window(stream("s0")).join(from_window(stream("s1")),
                                               on="v").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.DIRECT))
        query.executor.process_event(Arrival(0, "s0", (1,)))
        query.executor.process_event(Arrival(1, "s1", (1,)))
        assert sum(query.answer().values()) == 1
        query.executor.process_event(Tick(20))
        assert sum(query.answer().values()) == 0


class TestDispatch:
    def test_unreferenced_stream_skipped(self):
        query = ContinuousQuery(from_window(stream()).build())
        result = query.run([Arrival(1, "other", (9,)),
                            Arrival(2, "s0", (1,))])
        assert sum(result.answer().values()) == 1

    def test_unknown_relation_raises(self):
        query = ContinuousQuery(from_window(stream()).build())
        with pytest.raises(ExecutionError, match="relation"):
            query.executor.process_event(
                RelationUpdate(1, "ghost", "insert", (1,)))

    def test_same_stream_feeding_two_leaves(self):
        """A self-join: each arrival reaches both leaves exactly once and a
        tuple pairs with itself exactly once."""
        plan = (from_window(stream("s0"))
                .join(from_window(stream("s0")), on="v").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        query.executor.process_event(Arrival(1, "s0", (7,)))
        assert sum(query.answer().values()) == 1  # the self-pair
        query.executor.process_event(Arrival(2, "s0", (7,)))
        # pairs now: (a,a), (a,b), (b,a), (b,b)
        assert sum(query.answer().values()) == 4


class TestLazyPurging:
    def test_join_state_purged_on_interval(self):
        plan = (from_window(stream("s0", window=10))
                .join(from_window(stream("s1", window=10)), on="v").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA,
                                                      lazy_interval=5))
        ex = query.executor
        ex.process_event(Arrival(0, "s0", (1,)))
        join_op = query.compiled.op_for(query.plan)
        assert join_op.state_size() == 1
        # Tuple expires at 10; state may persist until the purge interval.
        ex.process_event(Tick(10.5))
        ex.process_event(Tick(16))  # >= one interval after last purge
        assert join_op.state_size() == 0

    def test_lazy_interval_defaults_to_five_percent(self):
        plan = (from_window(stream("s0", window=100))
                .join(from_window(stream("s1", window=100)), on="v").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        assert query.executor._lazy_interval == pytest.approx(5.0)

    def test_expired_state_never_produces_results_despite_laziness(self):
        plan = (from_window(stream("s0", window=10))
                .join(from_window(stream("s1", window=10)), on="v").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA,
                                                      lazy_interval=1000))
        ex = query.executor
        ex.process_event(Arrival(0, "s0", (1,)))
        ex.process_event(Arrival(11, "s1", (1,)))  # partner already expired
        assert sum(query.answer().values()) == 0


class TestRunResult:
    def test_result_metrics(self):
        plan = from_window(stream()).where(attr_equals("v", 1)).build()
        query = ContinuousQuery(plan)
        result = query.run([Arrival(1, "s0", (1,)), Arrival(2, "s0", (2,))])
        assert result.events_processed == 2
        assert result.elapsed >= 0
        assert result.time_per_1000() >= 0
        assert result.touches_per_tuple() >= 0
        assert result.counters.tuples_processed > 0

    def test_empty_run(self):
        query = ContinuousQuery(from_window(stream()).build())
        result = query.run([])
        assert result.events_processed == 0
        assert result.time_per_1000() == 0.0
        assert result.touches_per_tuple() == 0.0

    def test_touches_per_event_removed(self):
        plan = from_window(stream()).build()
        result = ContinuousQuery(plan).run([Arrival(1, "s0", (1,))])
        assert not hasattr(result, "touches_per_event")
