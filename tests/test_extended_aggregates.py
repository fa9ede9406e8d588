"""Tests for the variance / standard-deviation aggregates (extension)."""

import math

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    ReferenceEvaluator,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    from_window,
    stddev,
    variance,
)

from conftest import SlotAggregate


class TestVarAggregate:
    def test_known_values(self):
        agg = SlotAggregate("var")
        for v in (2, 4, 4, 4, 5, 5, 7, 9):
            agg.insert(v)
        assert agg.current() == pytest.approx(4.0)

    def test_removal_restores(self):
        agg = SlotAggregate("var")
        agg.insert(1)
        agg.insert(5)
        agg.insert(100)
        agg.remove(100)
        assert agg.current() == pytest.approx(4.0)  # var of {1, 5}

    def test_empty_is_none(self):
        assert SlotAggregate("var").current() is None

    def test_single_value_zero(self):
        agg = SlotAggregate("var")
        agg.insert(42)
        assert agg.current() == pytest.approx(0.0)

    def test_never_negative_despite_float_cancellation(self):
        agg = SlotAggregate("var")
        for _ in range(1000):
            agg.insert(1e8 + 0.1)
        assert agg.current() >= 0.0


class TestStddevAggregate:
    def test_sqrt_of_variance(self):
        agg = SlotAggregate("stddev")
        for v in (2, 4, 4, 4, 5, 5, 7, 9):
            agg.insert(v)
        assert agg.current() == pytest.approx(2.0)

    def test_empty_is_none(self):
        assert SlotAggregate("stddev").current() is None


class TestEndToEnd:
    def test_windowed_variance_tracks_expiry(self):
        stream = StreamDef("s", Schema(["v"]), TimeWindow(10))
        plan = from_window(stream).group_by(
            [], [variance("v"), stddev("v")]).build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        query.executor.process_event(Arrival(0, "s", (10,)))
        query.executor.process_event(Arrival(5, "s", (20,)))
        ((var_now, sd_now),) = query.answer()
        assert var_now == pytest.approx(25.0)
        assert sd_now == pytest.approx(5.0)
        # After the first tuple expires, only 20 remains: variance 0.
        query.executor.process_event(Tick(11))
        ((var_later, sd_later),) = query.answer()
        assert var_later == pytest.approx(0.0)
        assert sd_later == pytest.approx(0.0)

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_matches_oracle(self, mode):
        import random
        rng = random.Random(5)
        stream = StreamDef("s", Schema(["v"]), TimeWindow(6))
        plan = from_window(stream).group_by([], [variance("v")]).build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
        oracle = ReferenceEvaluator()
        ts = 0.0
        for _ in range(150):
            ts += rng.choice([0.5, 1.0])
            event = Arrival(ts, "s", (rng.randrange(6),))
            query.executor.process_event(event)
            oracle.observe(event)
            got = query.answer()
            want = oracle.evaluate(plan, ts)
            assert len(got) == len(want) == 1
            (got_var,) = list(got)[0:1][0]
            (want_var,) = list(want)[0:1][0]
            assert got_var == pytest.approx(want_var)
