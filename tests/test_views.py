"""Tests for the materialized result views."""

from collections import Counter

import pytest

from repro import Tuple
from repro.buffers import HashBuffer, ListBuffer
from repro.core.tuples import deletion_key
from repro.engine.views import AppendView, BufferView, GroupView


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


class TestGroupView:
    def test_replacement_by_group(self):
        view = GroupView(n_keys=1)
        view.apply(Tuple(("g", 1), 1), 1)
        view.apply(Tuple(("g", 2), 2), 2)
        assert view.snapshot(3) == Counter({("g", 2): 1})
        assert len(view) == 1

    def test_negative_deletes_group(self):
        view = GroupView(n_keys=1)
        view.apply(Tuple(("g", 1), 1), 1)
        view.apply(Tuple(("g", 0), 2, sign=-1), 2)
        assert view.snapshot(3) == Counter()

    def test_zero_key_global_group(self):
        view = GroupView(n_keys=0)
        view.apply(Tuple((3,), 1), 1)
        view.apply(Tuple((4,), 2), 2)
        assert view.snapshot(3) == Counter({(4,): 1})

    def test_groups_mapping(self):
        view = GroupView(n_keys=1)
        view.apply(Tuple(("g", 1), 1), 1)
        assert list(view.groups()) == [("g",)]


class TestGroupViewStore:
    """The latest-result-per-group mapping behind ``GroupView`` (the
    ``GroupStore`` buffer, now the dict it always was)."""

    @staticmethod
    def deleted(group):
        return Tuple(group + (0,), 9, sign=-1)

    def test_replace_and_get(self):
        view = GroupView(n_keys=1)
        r1 = Tuple(("g", 1), 1)
        view.apply(r1, 1)
        assert view.groups()[("g",)] is r1
        r2 = Tuple(("g", 2), 2)
        view.apply(r2, 2)
        assert view.groups()[("g",)] is r2
        assert len(view) == 1

    def test_none_deletes_group(self):
        view = GroupView(n_keys=1)
        view.apply(Tuple(("g", 1), 1), 1)
        view.apply(self.deleted(("g",)), 9)
        assert view.groups().get(("g",)) is None
        assert len(view) == 0

    def test_snapshot_is_a_copy(self):
        view = GroupView(n_keys=1)
        view.apply(Tuple(("g", 1), 1), 1)
        snap = view.groups()
        view.apply(self.deleted(("g",)), 9)
        assert ("g",) in snap

    def test_contains_and_iter(self):
        view = GroupView(n_keys=1)
        view.apply(Tuple(("a", 1), 1), 1)
        view.apply(Tuple(("b", 2), 1), 1)
        assert ("a",) in view.groups()
        assert sorted(t.values[0] for t in view.groups().values()) \
            == ["a", "b"]
