"""Tests for the public testing utilities (repro.testing)."""

import random

import pytest

from repro import (
    Arrival,
    CountWindow,
    Mode,
    Schema,
    StreamDef,
    TimeWindow,
    from_window,
)
from repro.testing import (
    EquivalenceError,
    answers_agree,
    assert_equivalent,
    check_plan,
)

from conftest import random_arrivals

V = Schema(["v"])


def stream(name="s0"):
    return StreamDef(name, V, TimeWindow(8))


class TestCheckPlan:
    def test_counts_comparisons(self):
        plan = from_window(stream()).build()
        events = random_arrivals(n=30)
        assert check_plan(plan, events, Mode.UPA) == len(events)

    def test_divergence_reported_with_context(self, monkeypatch):
        plan = from_window(stream()).build()
        # Sabotage the view to force a divergence.
        from repro import ContinuousQuery, ExecutionConfig
        import repro.testing as testing_mod

        class Broken:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def snapshot(self, now):
                from collections import Counter
                return Counter({("bogus",): 1})

        original = testing_mod.ContinuousQuery

        def broken_query(plan, config):
            query = original(plan, config)
            query.compiled.view = Broken(query.compiled.view)
            return query

        monkeypatch.setattr(testing_mod, "ContinuousQuery", broken_query)
        with pytest.raises(EquivalenceError, match="Definition 1 violated"):
            check_plan(plan, random_arrivals(n=5), Mode.UPA)


    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_count_window_with_repeated_and_fractional_timestamps(
            self, mode, seed):
        """Under ``[ROWS n]`` the driver's clock is the stream's sequence
        number, not a time: the oracle must read the event's timestamp."""
        plan = from_window(StreamDef("s0", V, CountWindow(7))).build()
        rng = random.Random(seed)
        events, ts = [], 0.0
        for _ in range(200):
            ts += rng.choice([0.0, 0.5, 1.0, 2.5])
            events.append(Arrival(ts, "s0", (rng.randrange(4),)))
        assert check_plan(plan, events, mode) == len(events)


class TestAssertEquivalent:
    def test_passes_for_sound_plans(self):
        plan = (from_window(stream("s0"))
                .join(from_window(stream("s1")), on="v").build())
        assert_equivalent(plan, random_arrivals(n=60))

    def test_skips_inapplicable_modes(self):
        # DIRECT rejects negation; assert_equivalent must not blow up.
        plan = (from_window(stream("s0"))
                .minus(from_window(stream("s1")), on="v").build())
        assert_equivalent(plan, random_arrivals(n=60, vmax=3))


class TestAnswersAgree:
    def test_true_for_equivalent_strategies(self):
        events = random_arrivals(n=60)
        assert answers_agree(
            lambda: from_window(stream("s0")).distinct().build(), events)

    def test_empty_mode_list(self):
        assert answers_agree(lambda: from_window(stream()).build(),
                             [Arrival(1, "s0", (1,))], modes=())
