"""Tests for the materialized result views."""

from collections import Counter

import pytest

from repro import (AggregateSpec, Arrival, ContinuousQuery, ExecutionConfig,
                   Mode, Schema, StreamDef, Tick, TimeWindow, Tuple,
                   from_window)
from repro.buffers import HashBuffer, ListBuffer
from repro.core.tuples import deletion_key
from repro.engine.views import AppendView, BufferView, GroupStateView


def t(v, ts, exp, sign=1):
    return Tuple((v,), ts, exp, sign)


class TestBufferView:
    def test_apply_positive_then_negative(self):
        view = BufferView(HashBuffer(deletion_key), purges=False)
        view.apply(t("a", 1, 9), 1)
        assert view.snapshot(2) == Counter({("a",): 1})
        view.apply(t("a", 5, 9, sign=-1), 5)
        assert view.snapshot(5) == Counter()

    def test_purging_view_drops_expired(self):
        view = BufferView(ListBuffer(deletion_key), purges=True)
        view.apply(t("a", 1, 5), 1)
        view.apply(t("b", 2, 9), 2)
        view.purge(6)
        assert view.snapshot(6) == Counter({("b",): 1})
        assert len(view) == 1

    def test_non_purging_view_ignores_purge(self):
        view = BufferView(HashBuffer(deletion_key), purges=False)
        view.apply(t("a", 1, 5), 1)
        view.purge(100)
        assert len(view) == 1  # stays until a negative arrives

    def test_snapshot_filters_expired_but_unpurged(self):
        view = BufferView(ListBuffer(deletion_key), purges=True)
        view.apply(t("a", 1, 5), 1)
        # No purge yet, but the snapshot at now=6 must not show it.
        assert view.snapshot(6) == Counter()


class TestAppendView:
    def test_accumulates_forever(self):
        view = AppendView()
        view.apply(t("a", 1, float("inf")), 1)
        view.apply(t("a", 2, float("inf")), 2)
        assert view.snapshot(100) == Counter({("a",): 2})
        assert len(view.results()) == 2

    def test_rejects_negatives(self):
        view = AppendView()
        with pytest.raises(AssertionError):
            view.apply(t("a", 1, 5, sign=-1), 1)


def run_grouped(arrivals, keys=("g",), mode=Mode.UPA):
    """A COUNT group-by over ``s(g, v)`` [RANGE 5], run over ``(ts,
    values)`` arrivals (``values`` None: a tick)."""
    source = from_window(StreamDef("s", Schema(["g", "v"]), TimeWindow(5)))
    spec = AggregateSpec("count", None, "n")
    plan = (source.group_by(list(keys), [spec]) if keys
            else source.aggregate(spec)).build()
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
    query.run([Arrival(ts, "s", values) if values is not None
               else Tick(ts) for ts, values in arrivals])
    assert type(query.compiled.view) is GroupStateView
    return query


class TestGroupView:
    """The view of a group-by root (``GroupStateView``): the operator's
    group table, read standalone or — a whole shared plan — through the
    producer that owns it."""

    def test_replacement_by_group(self):
        query = run_grouped([(1, ("g", 1)), (2, ("g", 2))])
        assert query.answer() == Counter({("g", 2): 1})
        assert len(query.compiled.view) == 0  # the group table is the view

    def test_negative_deletes_group(self):
        """A group whose last input leaves (under NT as a negative tuple)
        leaves the answer."""
        for mode in (Mode.NT, Mode.UPA):
            query = run_grouped([(1, ("g", 1)), (3, ("h", 1)), (7, None)],
                                mode=mode)
            assert query.answer() == Counter({("h", 1): 1}), mode

    def test_zero_key_global_group(self):
        query = run_grouped([(1, ("g", 3)), (2, ("h", 4))], keys=())
        assert query.answer() == Counter({(2,): 1})

    def test_groups_mapping(self):
        query = run_grouped([(1, ("g", 1)), (2, ("h", 1)), (3, ("g", 1))])
        op = query.compiled.op_for(query.plan)
        assert sorted(op.rows()) == [("g", 2), ("h", 1)]
        assert op.group_count() == 2


class TestGroupViewStore:
    """The group table behind the group view: one row per live group,
    finished on read and cached until the next fold."""

    @staticmethod
    def table(query):
        return query.compiled.op_for(query.plan)

    def test_replace_and_get(self):
        query = run_grouped([(1, ("g", 1))])
        op = self.table(query)
        rows = op.rows()
        assert rows == [("g", 1)] and op.rows() is rows  # a repeat read
        query.executor.process_event(Arrival(2, "s", ("g", 2)))
        assert op.rows() == [("g", 2)]  # the fold replaced the row

    def test_none_deletes_group(self):
        query = run_grouped([(1, ("g", 1)), (7, None)])
        assert self.table(query).group_count() == 0
        assert self.table(query).rows() == []

    def test_snapshot_is_a_copy(self):
        query = run_grouped([(1, ("g", 1))])
        snap = query.answer()
        query.executor.process_event(Tick(9))
        assert snap == Counter({("g", 1): 1})
        assert query.answer() == Counter()

    def test_contains_and_iter(self):
        query = run_grouped([(1, ("a", 1)), (1, ("b", 2))])
        answer = query.answer()
        assert ("a", 1) in answer
        assert sorted(row[0] for row in answer) == ["a", "b"]
