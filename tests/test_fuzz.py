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
    from_window,
)
from repro.errors import PlanError
from repro.testing import check_plan

V = Schema(["v"])

MODES = [Mode.NT, Mode.UPA, Mode.DIRECT]


def random_plan(rng):
    """A random plan tree (depth ≤ 3) over three windowed streams."""
    windows = [rng.choice([3, 5, 8, 13]) for _ in range(3)]
    streams = [StreamDef(f"s{i}", V, TimeWindow(windows[i]))
               for i in range(3)]

    def leaf():
        return from_window(streams[rng.randrange(3)])

    def build(depth):
        if depth >= 3 or rng.random() < 0.3:
            return leaf()
        kind = rng.choice(["select", "union", "join", "distinct", "minus",
                           "intersect"])
        if kind == "select":
            k = rng.randrange(4)
            return build(depth + 1).where(
                Predicate(("v",), lambda x, k=k: x[0] <= k, f"v<={k}"))
        if kind == "union":
            return build(depth + 1).union(build(depth + 1))
        if kind == "join":
            joined = build(depth + 1).join(build(depth + 1), on="v")
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


@pytest.mark.parametrize("seed", [19, 20, 21, 35, 53] + list(range(8)))
def test_random_plans_match_oracle(seed):
    """Seeds 19/20/21/35/53 are the historical bug-finders."""
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
