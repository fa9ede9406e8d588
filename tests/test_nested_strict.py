"""Nested strict non-monotonic compositions — negation under everything.

The unified negative-tuple handling (every stateful operator can delete
matching state and cascade) must compose: negation feeding negation, union
over negation, negation in a negation's *right* input, a group-by over a
negation.  Each shape is pinned to the Definition-1 oracle under every STR
execution scheme.
"""

import random

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
)
from repro.lang.builder import count
from repro.testing import check_plan

V = Schema(["v"])

#: NT, and UPA (which stores STR results partitioned by ``exp``); the ids
#: keep the ``<mode>-<STR storage>`` form these tests have always reported.
MODES = [Mode.NT, Mode.UPA]
MODE_IDS = ["nt-auto", "upa-partitioned"]


def stream(name, window=8):
    return StreamDef(name, V, TimeWindow(window))


def events(n=250, seed=1, vmax=3, n_streams=3):
    rng = random.Random(seed)
    out, ts = [], 0.0
    for _ in range(n):
        ts += rng.choice([0.25, 0.5, 1.0])
        out.append(Arrival(ts, f"s{rng.randrange(n_streams)}",
                           (rng.randrange(vmax),)))
    out.append(Tick(ts + 50))
    return out


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
class TestNestedStrictShapes:
    def test_negation_of_negation(self, mode):
        plan = (from_window(stream("s0"))
                .minus(from_window(stream("s1")), on="v")
                .minus(from_window(stream("s2")), on="v").build())
        check_plan(plan, events(seed=1), mode)

    def test_union_over_negation(self, mode):
        plan = (from_window(stream("s0"))
                .minus(from_window(stream("s1")), on="v")
                .union(from_window(stream("s2"))).build())
        check_plan(plan, events(seed=2), mode)

    def test_negation_in_right_input(self, mode):
        inner = from_window(stream("s1")).minus(from_window(stream("s2")),
                                                on="v")
        plan = from_window(stream("s0")).minus(inner, on="v").build()
        check_plan(plan, events(seed=3), mode)

    def test_distinct_over_negation(self, mode):
        plan = (from_window(stream("s0"))
                .minus(from_window(stream("s1")), on="v")
                .distinct().build())
        check_plan(plan, events(seed=4), mode)

    def test_group_by_over_negation_with_a_subscriber(self, mode):
        """Two chained eager participants under UPA: each pass must
        expire the negation before the group-by above it (bottom-up), or
        a subscribed group-by keeps groups whose members already left."""
        plan = (from_window(stream("s0"))
                .minus(from_window(stream("s1")), on="v")
                .group_by(["v"], [count("n")]).build())
        for seed in (1, 3, 4):
            query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
            query.subscribe(lambda t, now: None)
            oracle = ReferenceEvaluator()
            for event in events(seed=seed):
                query.executor.process_event(event)
                oracle.observe(event)
                assert query.answer() == oracle.evaluate(plan, event.ts), (
                    seed, event)

    def test_intersect_with_negation_input(self, mode):
        plan = (from_window(stream("s0"))
                .minus(from_window(stream("s1")), on="v")
                .intersect(from_window(stream("s2"))).build())
        check_plan(plan, events(seed=5), mode)
