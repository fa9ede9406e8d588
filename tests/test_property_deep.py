"""Deeper property-based tests: nested random plans, scrambled feeds,
count windows — all pinned to the Definition-1 oracle.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Arrival,
    ContinuousQuery,
    CountWindow,
    ExecutionConfig,
    Mode,
    Predicate,
    ReferenceEvaluator,
    ReorderBuffer,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    count,
    from_window,
)
from repro.core.plan import (
    DupElim,
    Join,
    LogicalNode,
    Negation,
    Project,
    Rename,
    Select,
    Union,
    WindowScan,
)

V = Schema(["v"])
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _leaf(index: int, window: float) -> LogicalNode:
    return WindowScan(StreamDef(f"s{index}", V, TimeWindow(window)))


@st.composite
def nested_plans(draw, max_depth=3, allow_negation=True):
    """Random plan trees over streams s0..s2, all single-attribute."""
    window = draw(st.sampled_from([4, 8]))

    def build(depth: int) -> LogicalNode:
        if depth >= max_depth:
            return _leaf(draw(st.integers(0, 2)), window)
        choices = ["leaf", "select", "union", "join", "distinct"]
        if allow_negation:
            choices.append("negation")
        shape = draw(st.sampled_from(choices))
        if shape == "leaf":
            return _leaf(draw(st.integers(0, 2)), window)
        if shape == "select":
            k = draw(st.integers(0, 3))
            return Select(build(depth + 1),
                          Predicate(("v",), lambda x, k=k: x[0] <= k,
                                    f"v<={k}"))
        if shape == "union":
            return Union(build(depth + 1), build(depth + 1))
        if shape == "join":
            left, right = build(depth + 1), build(depth + 1)
            joined = Join(left, right, "v", "v")
            # Project back to the left copy of the key and restore the
            # canonical single-attribute schema with a rename.
            return Rename(Project(joined, [joined.schema.fields[0]]), ["v"])
        if shape == "distinct":
            return DupElim(build(depth + 1))
        # negation: keep it near the leaves so counts stay small
        return Negation(_leaf(draw(st.integers(0, 2)), window),
                        _leaf(draw(st.integers(0, 2)), window), "v")

    return build(0)


@st.composite
def event_batches(draw, n_streams=3, vmax=3, max_events=50):
    gaps = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=5,
                         max_size=max_events))
    events = []
    ts = 0.0
    for gap in gaps:
        ts += gap
        events.append(Arrival(ts, f"s{draw(st.integers(0, n_streams - 1))}",
                              (draw(st.integers(0, vmax - 1)),)))
    events.append(Tick(ts + 30))
    return events


def _check(plan, events, mode, **cfg):
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode, **cfg))
    oracle = ReferenceEvaluator()
    for event in events:
        query.executor.process_event(event)
        oracle.observe(event)
        got = query.answer()
        want = oracle.evaluate(plan, query.executor.now)
        assert got == want, (
            f"{mode} {cfg}: {dict(got)} != {dict(want)} after {event!r}\n"
            f"plan: {plan!r}"
        )


class TestNestedPlans:
    @SETTINGS
    @given(plan=nested_plans(allow_negation=False),
           events=event_batches())
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_negation_free_nested(self, plan, events, mode):
        _check(plan, events, mode)

    @SETTINGS
    @given(plan=nested_plans(allow_negation=True), events=event_batches())
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA],
                             ids=["nt-auto", "upa-partitioned"])
    def test_nested_with_negation(self, plan, events, mode):
        _check(plan, events, mode)


class TestReorderEquivalence:
    """Scrambling a feed within the reorder buffer's slack must not change
    any query answer — the substrate is transparent."""

    @SETTINGS
    @given(events=event_batches(max_events=40),
           seed=st.integers(0, 2**16), slack=st.sampled_from([2.0, 5.0]))
    def test_permuted_feed_same_answer(self, events, seed, slack):
        """Permuting the delivery order (timestamps unchanged) within the
        buffer's slack must yield the same final answer as the sorted feed."""
        def make_plan():
            return (from_window(StreamDef("s0", V, TimeWindow(8)))
                    .join(from_window(StreamDef("s1", V, TimeWindow(8))),
                          on="v").build())

        baseline = ContinuousQuery(make_plan(),
                                   ExecutionConfig(mode=Mode.UPA))
        baseline.run(list(events))

        # Non-overlapping adjacent swaps: each event moves at most one
        # position, so its lateness is bounded by one inter-arrival gap,
        # which we additionally require to be below the slack.
        rng = random.Random(seed)
        permuted = list(events)
        i = 0
        while i < len(permuted) - 1:
            a, b = permuted[i], permuted[i + 1]
            if abs(a.ts - b.ts) < slack and rng.random() < 0.5:
                permuted[i], permuted[i + 1] = b, a
                i += 2
            else:
                i += 1

        scrambled = ContinuousQuery(make_plan(),
                                    ExecutionConfig(mode=Mode.UPA))
        scrambled.run(ReorderBuffer(slack=slack).reorder(permuted))
        assert scrambled.answer() == baseline.answer()


class TestCountWindowProperties:
    @SETTINGS
    @given(values=st.lists(st.integers(0, 3), min_size=5, max_size=80),
           size=st.integers(1, 6))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_groupby_over_count_window(self, values, size, mode):
        stream = StreamDef("s", V, CountWindow(size))
        plan = from_window(stream).group_by(["v"], [count()]).build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
        oracle = ReferenceEvaluator()
        for i, value in enumerate(values):
            event = Arrival(i + 1, "s", (value,))
            query.executor.process_event(event)
            oracle.observe(event)
            assert query.answer() == oracle.evaluate(plan, i + 1)
