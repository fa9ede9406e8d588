"""Nested strict non-monotonic compositions — negation under everything.

The unified negative-tuple handling (every stateful operator can delete
matching state and cascade) must compose: negation feeding negation, union
over negation, negation in a negation's *right* input.  Each shape is pinned
to the Definition-1 oracle under every STR execution scheme.
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
    from_window,
)
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

    def test_intersect_with_negation_input(self, mode):
        plan = (from_window(stream("s0"))
                .minus(from_window(stream("s1")), on="v")
                .intersect(from_window(stream("s2"))).build())
        check_plan(plan, events(seed=5), mode)
