"""Exact oracle alignment for negation over multi-attribute tuples.

Equation 1 leaves the *choice* of answer tuples free; the engine uses the
oldest-prefix policy and the oracle mirrors it whenever the left subtree
exposes per-tuple timestamps.  These tests pin that alignment — including
through selections and projections below the negation — so `repro.testing`
and the `validate` CLI are exact (not just projection-exact) on realistic
multi-attribute plans.
"""

import random

import pytest

from repro import Arrival, Mode, Predicate, Schema, StreamDef, TimeWindow, from_window
from repro.testing import check_plan

TWO = Schema(["k", "payload"])


def streams(window=6):
    return (StreamDef("a", TWO, TimeWindow(window)),
            StreamDef("b", TWO, TimeWindow(window)))


def adversarial_events(n=400, seed=99, kmax=3):
    rng = random.Random(seed)
    events = []
    ts = 0.0
    for i in range(n):
        ts += rng.choice([0.25, 0.5, 1.0])
        stream = rng.choice(["a", "a", "b"])
        events.append(Arrival(ts, stream, (rng.randrange(kmax),
                                           f"{stream}{i}")))
    return events


#: NT, and UPA (which stores STR results partitioned by ``exp``); the ids
#: keep the ``<mode>-<STR storage>`` form these tests have always reported.
MODES = [Mode.NT, Mode.UPA]
MODE_IDS = ["nt-auto", "upa-partitioned"]


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
class TestExactAlignment:
    def test_plain_negation(self, mode):
        a, b = streams()
        plan = from_window(a).minus(from_window(b), on="k").build()
        assert check_plan(plan, adversarial_events(), mode) == 400

    def test_negation_over_selection(self, mode):
        a, b = streams()
        keep = Predicate(("k",), lambda v: v[0] != 1, "k != 1")
        plan = (from_window(a).where(keep)
                .minus(from_window(b), on="k").build())
        assert check_plan(plan, adversarial_events(seed=5), mode) == 400

    def test_selection_above_negation(self, mode):
        a, b = streams()
        keep = Predicate(("k",), lambda v: v[0] < 2, "k < 2")
        plan = (from_window(a).minus(from_window(b), on="k")
                .where(keep).build())
        assert check_plan(plan, adversarial_events(seed=7), mode) == 400

    def test_projection_below_negation(self, mode):
        a, b = streams()
        plan = (from_window(a).project("k")
                .minus(from_window(b).project("k"), on="k").build())
        assert check_plan(plan, adversarial_events(seed=11), mode) == 400

    def test_mismatched_windows(self, mode):
        a = StreamDef("a", TWO, TimeWindow(8))
        b = StreamDef("b", TWO, TimeWindow(3))
        plan = from_window(a).minus(from_window(b), on="k").build()
        assert check_plan(plan, adversarial_events(seed=13), mode) == 400
