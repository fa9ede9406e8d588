"""Deep plan fuzzing: random nested plans, every strategy, oracle-checked.

This is the harness that found two real bugs during development (retraction
loss when both join constituents expire at the same instant, and a stale
representative causing double promotion in duplicate elimination) — kept in
the suite, seeded and bounded, so the same class of compositional bugs
cannot regress silently.  The regressions themselves are pinned as explicit
scenarios below.
"""

import random

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    Predicate,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    WindowScan,
    count,
    from_window,
)
from repro.engine.views import GroupStateView, JoinStateView
from repro.errors import PlanError
from repro.testing import check_plan

V = Schema(["v"])

MODES = [Mode.NT, Mode.UPA, Mode.DIRECT]


KINDS = ["select", "union", "join", "distinct", "minus", "intersect"]


def random_plan(rng):
    """A random plan tree (depth ≤ 3) over three windowed streams.

    The root is always an operator, and may be a group-by (which must be
    the final step) or a join that keeps both inputs' columns — the roots
    whose own state is the UPA answer.  Below the root every subtree has
    the one-column schema ``v``, so any two of them compose.
    """
    windows = [rng.choice([3, 5, 8, 13]) for _ in range(3)]
    streams = [StreamDef(f"s{i}", V, TimeWindow(windows[i]))
               for i in range(3)]

    def leaf():
        return from_window(streams[rng.randrange(3)])

    def build(depth):
        if depth >= 3 or (depth and rng.random() < 0.3):
            return leaf()
        kind = rng.choice(KINDS if depth else KINDS + ["group"])
        if kind == "group":
            return build(depth + 1).group_by(["v"], [count()])
        if kind == "select":
            k = rng.randrange(4)
            return build(depth + 1).where(
                Predicate(("v",), lambda x, k=k: x[0] <= k, f"v<={k}"))
        if kind == "union":
            return build(depth + 1).union(build(depth + 1))
        if kind == "join":
            joined = build(depth + 1).join(build(depth + 1), on="v")
            if not depth:
                return joined
            return joined.project(joined.schema.fields[0]).rename("v")
        if kind == "distinct":
            return build(depth + 1).distinct()
        if kind == "intersect":
            return build(depth + 1).intersect(build(depth + 1))
        return build(depth + 1).minus(build(depth + 1), on="v")

    return build(0).build()


def random_events(rng, n=100):
    out, ts = [], 0.0
    for _ in range(n):
        ts += rng.choice([0.25, 0.5, 1.0])
        out.append(Arrival(ts, f"s{rng.randrange(3)}",
                           (rng.randrange(4),)))
    out.append(Tick(ts + 40))
    return out


SEEDS = [19, 20, 21, 35, 53] + list(range(8))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_plans_match_oracle(seed):
    """Seeds 19/20/21/35/53 found bugs in an earlier grammar; the plans
    and events they drew then are pinned below as explicit scenarios."""
    events = None
    for mode in MODES:
        rng = random.Random(seed)
        plan = random_plan(rng)
        if events is None:
            events = random_events(rng)
        try:
            check_plan(plan, list(events), mode)
        except PlanError:
            continue


def test_seeds_reach_the_state_view_roots():
    """The seeds above check, under UPA, a join root read from the join's
    state and a group-by root read from its group table — and never a bare
    window, whose answer is only the window's contents."""
    views = set()
    for seed in SEEDS:
        plan = random_plan(random.Random(seed))
        assert not isinstance(plan, WindowScan)
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        views.add(type(query.compiled.view))
    assert {JoinStateView, GroupStateView} <= views


def _at_most(k):
    return Predicate(("v",), lambda x, k=k: x[0] <= k, f"v<={k}")


def _join_v(left, right):
    joined = left.join(right, on="v")
    return joined.project(joined.schema.fields[0]).rename("v")


def _earlier_grammar_plan(seed):
    """The plan the grammar before group-by and join roots drew for
    ``seed``."""
    lengths = {19: (3, 3, 5), 20: (5, 8, 3), 35: (8, 5, 8)}[seed]
    streams = [StreamDef(f"s{i}", V, TimeWindow(n))
               for i, n in enumerate(lengths)]

    def s(i):
        return from_window(streams[i])

    if seed == 19:
        return s(0).minus(_join_v(s(0), s(1)).where(_at_most(2)),
                          on="v").build()
    if seed == 20:
        return (s(0).where(_at_most(0)).where(_at_most(3))
                .minus(s(0).union(s(1)).minus(s(1).intersect(s(1)), on="v"),
                       on="v").build())
    return _join_v(_join_v(s(2).intersect(s(1)), s(2).intersect(s(0))),
                   s(2).minus(s(0).intersect(s(1)), on="v")).build()


# The events those seeds drew, one ``<gap><stream><v>`` token per arrival
# (gap 0, 1, 2: 0.25, 0.5, 1.0 after the previous one), then a tick 40
# after the last.
EARLIER_GRAMMAR_EVENTS = {
    19: "101 000 213 200 100 223 112 221 211 220 011 003 023 013 203 212 "
        "121 000 013 102 012 112 203 112 200 013 010 123 201 122 001 012 "
        "101 210 121 012 202 102 210 011 002 211 122 222 222 223 101 003 "
        "020 123 212 111 110 223 120 102 113 222 012 101 101 010 220 023 "
        "021 211 220 101 010 211 023 123 202 201 102 121 212 023 000 103 "
        "213 110 210 202 200 111 221 011 223 013 120 220 200 103 023 113 "
        "000 010 123 211",
    20: "103 101 200 000 012 122 020 011 021 002 102 223 022 211 010 203 "
        "100 201 101 002 022 223 120 200 122 000 012 202 200 000 001 103 "
        "103 001 000 103 020 110 002 102 012 020 010 112 110 023 000 222 "
        "201 110 001 203 220 212 101 213 110 103 101 112 100 100 210 011 "
        "202 201 212 200 013 013 222 222 203 111 121 102 121 220 210 202 "
        "102 121 002 020 012 022 002 101 103 020 113 220 202 223 013 223 "
        "001 010 013 102",
    35: "210 002 002 020 110 100 203 113 210 123 220 022 210 013 013 202 "
        "221 021 020 001 003 220 211 213 210 212 221 123 110 120 222 213 "
        "013 002 221 101 210 010 113 220 020 110 221 223 001 102 203 101 "
        "103 221 220 213 211 202 101 012 100 123 200 110 110 021 213 012 "
        "110 020 012 220 013 222 110 002 001 100 110 122 202 111 013 103 "
        "023 013 203 020 002 200 200 111 212 210 122 113 212 201 103 000 "
        "011 001 113 011",
}


def _earlier_grammar_events(seed):
    out, ts = [], 0.0
    for gap, stream, v in EARLIER_GRAMMAR_EVENTS[seed].split():
        ts += (0.25, 0.5, 1.0)[int(gap)]
        out.append(Arrival(ts, f"s{stream}", (int(v),)))
    out.append(Tick(ts + 40))
    return out


@pytest.mark.parametrize("seed", [19, 20, 35])
def test_earlier_grammar_seed_matches_oracle(seed):
    """Seeds 19, 20 and 35 of the grammar before group-by and join roots
    (21 and 53: the two classes below)."""
    events = _earlier_grammar_events(seed)
    for mode in MODES:
        try:
            check_plan(_earlier_grammar_plan(seed), list(events), mode)
        except PlanError:
            continue


class TestSimultaneousExpiryRegression:
    """When two join constituents expire at the same instant, the retraction
    must still cascade (found by fuzz seed 53): probing for the negative
    path must not liveness-filter away the co-expiring partner."""

    def make_plan(self):
        s0 = StreamDef("s0", V, TimeWindow(5))
        s1 = StreamDef("s1", V, TimeWindow(13))
        right = (from_window(s0)
                 .join(from_window(s0), on="v"))
        right = right.project(right.schema.fields[0]).rename("v")
        return from_window(s1).distinct().minus(right, on="v").build()

    def test_late_left_arrival_sees_decremented_count(self):
        plan = self.make_plan()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.NT))
        ex = query.executor
        # The self-join result's two constituents share one expiry instant.
        ex.process_event(Arrival(51.25, "s0", (0,)))
        # Long after the result expired, the left side produces value 0;
        # with the leaked count the answer would wrongly stay empty.
        ex.process_event(Arrival(63.5, "s1", (0,)))
        assert dict(query.answer()) == {(0,): 1}


class TestStaleRepRegression:
    """A negative deleting an expired-but-unpurged representative must not
    promote a second representative when a live one already exists
    (found by fuzz seed 21)."""

    def test_no_double_representative(self):
        s0 = StreamDef("s0", V, TimeWindow(5))
        s2 = StreamDef("s2", V, TimeWindow(13))
        plan = (from_window(s0).minus(from_window(s2), on="v")
                .distinct().distinct().build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        for event in [Arrival(17.0, "s2", (2,)),
                      Arrival(25.25, "s0", (2,)),
                      Arrival(28.25, "s0", (2,)),
                      Arrival(32.5, "s0", (0,))]:
            query.executor.process_event(event)
        assert dict(query.answer()) == {(2,): 1, (0,): 1}
