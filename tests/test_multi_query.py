"""Tests for single-pass multi-query execution (QueryGroup)."""

from collections import Counter

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    Schema,
    StreamDef,
    TimeWindow,
    attr_equals,
    count,
    from_window,
)
from repro.engine.multi import QueryGroup

V = Schema(["v"])


def stream(name="s", window=10):
    return StreamDef(name, V, TimeWindow(window))


def events():
    return [Arrival(t, "s", (t % 3,)) for t in range(1, 21)]


class TestComposition:
    def test_add_and_lookup(self):
        group = QueryGroup()
        # Compiled when the group seals, with the whole membership known.
        assert group.add("all", from_window(stream()).build()) is None
        assert "all" in group and len(group) == 1
        assert group.names() == ["all"]
        assert isinstance(group["all"], ContinuousQuery)
        late = group.add("late", from_window(stream()).build())
        assert group["late"] is late

    def test_duplicate_name_rejected(self):
        group = QueryGroup()
        group.add("q", from_window(stream()).build())
        with pytest.raises(KeyError, match="already registered"):
            group.add("q", from_window(stream()).build())

    def test_preconstructed_queries(self):
        query = ContinuousQuery(from_window(stream()).build())
        group = QueryGroup({"pre": query})
        assert group["pre"] is query

    def test_add_text_compiles_against_catalog(self):
        from repro import SourceCatalog
        catalog = SourceCatalog().add_stream("s", V)
        group = QueryGroup()
        group.add_text("texty", "SELECT DISTINCT v FROM s [RANGE 10]",
                       catalog)
        group.run(events())
        assert len(group["texty"].answer()) == 3


class TestExecution:
    def test_single_pass_feeds_all_queries(self):
        group = QueryGroup()
        group.add("evens", from_window(stream())
                  .where(attr_equals("v", 0)).build())
        group.add("counts", from_window(stream())
                  .group_by(["v"], [count()]).build())
        result = group.run(events())
        assert result.events_processed == 20
        evens = result.answer("evens")
        counts = result.answer("counts")
        assert all(values == (0,) for values in evens)
        assert len(counts) == 3  # one live count per residue class

    def test_members_may_use_different_strategies(self):
        group = QueryGroup()
        group.add("nt", from_window(stream()).build(),
                  ExecutionConfig(mode=Mode.NT))
        group.add("upa", from_window(stream()).build(),
                  ExecutionConfig(mode=Mode.UPA))
        group.run(events())
        assert group["nt"].answer() == group["upa"].answer()
        touches = {name: group[name].counters.touches
                   for name in group.names()}
        assert touches["nt"] != touches["upa"]  # independent accounting

    def test_matches_individual_runs(self):
        plan_a = from_window(stream()).where(attr_equals("v", 1)).build()
        plan_b = from_window(stream()).distinct().build()
        solo_a = ContinuousQuery(
            from_window(stream()).where(attr_equals("v", 1)).build())
        solo_b = ContinuousQuery(from_window(stream()).distinct().build())
        solo_a.run(events())
        solo_b.run(events())
        group = QueryGroup()
        group.add("a", plan_a)
        group.add("b", plan_b)
        group.run(events())
        assert group["a"].answer() == solo_a.answer()
        assert group["b"].answer() == solo_b.answer()

    def test_answers_snapshot(self):
        group = QueryGroup()
        group.add("q", from_window(stream()).build())
        group.run(events())
        snapshot = group.answers()
        assert "q" in snapshot and isinstance(snapshot["q"], dict)
