"""Mixed window sizes: the Rule 2 refinement and its correctness.

Merging two windows of *different* sizes interleaves tuple lifetimes, so
the union's expiration order is not FIFO — the annotation must say WK (not
WKS, which would select a FIFO buffer and fail at run time).  With equal
sizes the literal Rule 2 holds and WKS is kept.
"""

import random

import pytest

from repro import (
    Arrival,
    Mode,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    Union,
    WK,
    WKS,
    annotate,
    from_window,
)
from repro.core.plan import SharedScan
from repro.testing import assert_equivalent, check_plan

V = Schema(["v"])


def stream(name, window):
    return StreamDef(name, V, TimeWindow(window))


def mixed_union(w_a=10, w_b=3):
    return (from_window(stream("a", w_a))
            .union(from_window(stream("b", w_b))).build())


def cut_union(w_a, w_b):
    """The same union over two shared cuts: annotation reads each cut's
    lag through to its source, so the cuts change no decision."""
    a, b = (from_window(stream(name, w)).build()
            for name, w in (("a", w_a), ("b", w_b)))
    return Union(SharedScan(a, "cut-a"), SharedScan(b, "cut-b"))


def random_events(n=200, seed=0):
    rng = random.Random(seed)
    events, ts = [], 0.0
    for _ in range(n):
        ts += rng.choice([0.25, 0.5, 1.0])
        events.append(Arrival(ts, rng.choice("ab"), (rng.randrange(4),)))
    events.append(Tick(ts + 30))
    return events


class TestAnnotationRefinement:
    def test_mixed_windows_union_is_wk(self):
        assert annotate(mixed_union()).output_pattern is WK
        assert annotate(cut_union(10, 3)).output_pattern is WK

    def test_equal_windows_union_stays_wks(self):
        assert annotate(mixed_union(10, 10)).output_pattern is WKS
        assert annotate(cut_union(10, 10)).output_pattern is WKS

    def test_selection_preserves_lag(self):
        from repro import attr_equals
        plan = (from_window(stream("a", 10)).where(attr_equals("v", 1))
                .union(from_window(stream("b", 10))).build())
        assert annotate(plan).output_pattern is WKS

    def test_nested_mixed_union_propagates(self):
        inner = mixed_union(10, 3)
        plan = (from_window(stream("c", 10))
                .union(from_window(stream("a", 10))
                       .union(from_window(stream("b", 3)))).build())
        assert annotate(plan).output_pattern is WK


class TestMixedWindowCorrectness:
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_union_matches_oracle(self, mode):
        check_plan(mixed_union(), random_events(), mode)

    def test_distinct_over_mixed_union(self):
        plan = (from_window(stream("a", 10))
                .union(from_window(stream("b", 3))).distinct().build())
        assert_equivalent(plan, random_events(seed=4))

    def test_join_of_mixed_windows(self):
        plan = (from_window(stream("a", 10))
                .join(from_window(stream("b", 3)), on="v").build())
        assert_equivalent(plan, random_events(seed=5))

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA],
                             ids=["nt-auto", "upa-partitioned"])
    def test_negation_of_mixed_windows(self, mode):
        plan = (from_window(stream("a", 10))
                .minus(from_window(stream("b", 3)), on="v").build())
        check_plan(plan, random_events(seed=6), mode)


class TestMixedCountWindows:
    """Two count windows of different sizes on one stream: same refinement,
    sequence-time domain."""

    def setup_method(self):
        import random
        from repro import CountWindow
        self.s3 = StreamDef("s", V, CountWindow(3))
        self.s7 = StreamDef("s", V, CountWindow(7))
        rng = random.Random(2)
        self.events = [Arrival(i + 1, "s", (rng.randrange(4),))
                       for i in range(120)]

    def test_pattern_upgraded_to_wk(self):
        plan = from_window(self.s3).union(from_window(self.s7)).build()
        assert annotate(plan).output_pattern is WK

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_union_matches_oracle(self, mode):
        plan = from_window(self.s3).union(from_window(self.s7)).build()
        check_plan(plan, list(self.events), mode)

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_distinct_over_mixed_count_union(self, mode):
        plan = (from_window(self.s3).union(from_window(self.s7))
                .distinct().build())
        check_plan(plan, list(self.events), mode)

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_join_of_mixed_count_windows(self, mode):
        plan = (from_window(self.s3).join(from_window(self.s7),
                                          on="v").build())
        check_plan(plan, list(self.events), mode)
