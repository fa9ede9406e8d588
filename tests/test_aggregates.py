"""Unit tests for the incremental aggregates: every kind is a finalizer
over one group's slots, folded by ``GroupSlots``."""

import pytest

from repro import PlanError
from repro.operators.aggregates import KINDS, GroupSlots

from conftest import SlotAggregate


class TestCount:
    def test_insert_remove(self):
        agg = SlotAggregate("count")
        assert agg.current() == 0
        agg.insert(None)
        agg.insert(None)
        assert agg.current() == 2
        agg.remove(None)
        assert agg.current() == 1


class TestSum:
    def test_insert_remove(self):
        agg = SlotAggregate("sum")
        agg.insert(3)
        agg.insert(4)
        assert agg.current() == 7
        agg.remove(3)
        assert agg.current() == 4

    def test_handles_negative_values(self):
        agg = SlotAggregate("sum")
        agg.insert(-5)
        agg.insert(2)
        assert agg.current() == -3


class TestAvg:
    def test_running_average(self):
        agg = SlotAggregate("avg")
        agg.insert(2)
        agg.insert(4)
        assert agg.current() == 3
        agg.remove(2)
        assert agg.current() == 4

    def test_empty_is_none(self):
        agg = SlotAggregate("avg")
        assert agg.current() is None
        agg.insert(1)
        agg.remove(1)
        assert agg.current() is None


class TestMinMax:
    def test_min_tracks_runner_up_after_removal(self):
        agg = SlotAggregate("min")
        for v in (5, 3, 8):
            agg.insert(v)
        assert agg.current() == 3
        agg.remove(3)  # removing the extremum exposes the runner-up
        assert agg.current() == 5

    def test_max_with_duplicates(self):
        agg = SlotAggregate("max")
        agg.insert(7)
        agg.insert(7)
        agg.insert(2)
        agg.remove(7)  # one copy remains
        assert agg.current() == 7
        agg.remove(7)
        assert agg.current() == 2

    def test_empty_extremum_is_none(self):
        assert SlotAggregate("min").current() is None
        assert SlotAggregate("max").current() is None

    def test_removing_absent_value_raises(self):
        agg = SlotAggregate("min")
        agg.insert(1)
        with pytest.raises(PlanError, match="absent"):
            agg.remove(2)


class TestFactory:
    # The ids name the class each kind had when kinds were classes.
    @pytest.mark.parametrize("kind,reads", [
        pytest.param("count", (), id="count-CountAggregate"),
        pytest.param("sum", ("sum",), id="sum-SumAggregate"),
        pytest.param("avg", ("sum",), id="avg-AvgAggregate"),
        pytest.param("min", ("sorted",), id="min-MinAggregate"),
        pytest.param("max", ("sorted",), id="max-MaxAggregate"),
    ])
    def test_known_kinds(self, kind, reads):
        """A kind names the accumulators it reads; only those are kept."""
        assert KINDS[kind][0] == reads
        assert len(GroupSlots((kind,), (0,)).new(())) == 3 + len(reads)

    def test_unknown_kind_raises(self):
        with pytest.raises(PlanError, match="unknown aggregate"):
            GroupSlots(("median",), (0,))

    def test_kinds_over_one_attribute_share_its_accumulators(self):
        slots = GroupSlots(("count", "sum", "avg", "var", "stddev"),
                           (None, 0, 0, 0, 0))
        st = slots.new(("g",))
        assert len(st) == 3 + 2  # Σx and Σx², once
        for value in (2, 4):
            slots.fold(st, (value,), True)
        assert slots.row(st) == ("g", 2, 6, 3.0, 1.0, 1.0)

    def test_row_is_cached_until_the_next_fold(self):
        slots = GroupSlots(("sum",), (0,))
        st = slots.new(("g",))
        slots.fold(st, (5,), True)
        row = slots.row(st)
        assert slots.row(st) is row
        slots.fold(st, (1,), True)
        assert slots.row(st) == ("g", 6)
