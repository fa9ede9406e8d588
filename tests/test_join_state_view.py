"""The join-state view equals the view it replaced.

A UPA plan rooted at a bag ⋈ bag window join stores no results: ``answer()``
enumerates the join's two indexed inputs (``JoinStateView``), and while no
subscriber listens the join does not build a result tuple at all.  What
makes that safe is one equivalence, checked here on random traces: at any
instant the enumeration equals the Definition-1 snapshot *and* the
multiset a consumer rebuilds from the output stream plus ``exp`` — the
materialized semantics of Definition 2 — whoever is or is not listening,
on every driving path.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Arrival,
    ContinuousQuery,
    CountWindow,
    ExecutionConfig,
    Join,
    Mode,
    ReferenceEvaluator,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    WindowScan,
)
from repro.engine.views import JoinStateView
from repro.testing import reference_step

VW = Schema(["v", "w"])
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: How a trace is driven: the compiled per-tuple closure, the Section-2
#: reference loop, or micro-batches of that many events.
DRIVES = ("event", "reference", 7, 64)


@st.composite
def join_traces(draw):
    """A two-stream or self-join over small value domains (duplicates of
    whole tuples are common), zero gaps (equal timestamps) and differing
    window sizes, ending with ticks that expire part, then all, of it."""
    w0, w1 = draw(st.tuples(*[st.sampled_from([2, 5, 13])] * 2))
    self_join = draw(st.booleans())
    right = "s0" if self_join else "s1"
    plan = Join(WindowScan(StreamDef("s0", VW, TimeWindow(w0))),
                WindowScan(StreamDef(right, VW, TimeWindow(w1))), "v", "v")
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                         min_size=4, max_size=70))
    events, ts = [], 1.0
    for gap in gaps:
        ts += gap
        stream = draw(st.sampled_from(["s0", right, "other"]))
        values = (draw(st.integers(0, 2)), draw(st.integers(0, 1)))
        events.append(Arrival(ts, stream, values))
    events += [Tick(ts + 2.0), Tick(ts + 20.0)]
    return plan, events


def drive(plan, events, config, how, every, subscribe_at):
    """Run ``events`` in slices and compare ``answer()`` with the oracle
    at every ``every``-th slice boundary — and, when subscribed from the
    start, with the multiset rebuilt from the stream delivered so far.
    ``subscribe_at`` is the event index (a slice boundary) at which a
    subscriber attaches, or None.  Returns the subscribed stream as
    ``(slice start, values, exp, sign)``, the checkpoint answers, and the
    final counters."""
    query = ContinuousQuery(plan, config)
    assert isinstance(query.compiled.view, JoinStateView)
    executor = query.executor
    oracle = ReferenceEvaluator()
    position = [0]
    stream, answers = [], []
    materialized = subscribe_at == 0

    def callback(t, now):
        stream.append((position[0], t.values, t.exp, t.sign))

    step = how if isinstance(how, int) else 1
    for index, start in enumerate(range(0, len(events), step)):
        if subscribe_at is not None and start >= subscribe_at:
            query.subscribe(callback)
            subscribe_at = None
        chunk = events[start:start + step]
        position[0] = start
        if how == "event":
            executor.process_event(chunk[0])
        elif how == "reference":
            reference_step(executor, chunk[0])
        else:
            executor.process_batch(chunk)
        for event in chunk:
            oracle.observe(event)
        if index % every == 0:
            got = query.answer()
            assert got == oracle.evaluate(plan, executor.now), (
                f"after event {start + len(chunk) - 1} ({how=})")
            if materialized:
                assert got == Counter(
                    values for _at, values, exp, _sign in stream
                    if exp > executor.now)
            answers.append((executor.now, got))
        assert len(query.compiled.view) == 0
    return stream, answers, query.counters.snapshot()


@SETTINGS
@given(case=join_traces(),
       how=st.sampled_from(DRIVES),
       every=st.sampled_from([1, 3]),
       lazy=st.sampled_from([None, 0.01, 1e6]))
def test_enumeration_equals_snapshot_and_materialized_stream(
        case, how, every, lazy):
    plan, events = case
    config = ExecutionConfig(mode=Mode.UPA, lazy_interval=lazy)
    step = how if isinstance(how, int) else 1
    halfway = len(events) // 2 // step * step

    # Nobody listens: results are counted, not built (oracle checked inside).
    _none, quiet_answers, quiet_counters = drive(
        plan, events, config, how, every, None)
    # Always subscribed: the stream, replayed with exp, is the same view.
    stream, answers, counters = drive(plan, events, config, how, every, 0)
    assert answers == quiet_answers
    assert all(sign > 0 for _at, _values, _exp, sign in stream)
    # Subscribed half-way: the suffix of the always-subscribed stream.
    late, late_answers, late_counters = drive(
        plan, events, config, how, every, halfway)
    assert late == [entry for entry in stream if entry[0] >= halfway]
    assert late_answers == answers
    # The view is virtual whoever listens: every counter is the same.
    assert quiet_counters == counters == late_counters


def check_against_oracle(plan, events, **config):
    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA, **config))
    assert isinstance(query.compiled.view, JoinStateView)
    oracle = ReferenceEvaluator()
    for event in events:
        query.executor.process_event(event)
        oracle.observe(event)
        assert query.answer() == oracle.evaluate(plan, query.executor.now)
    return query


def test_count_window_self_join():
    """Count domain: ``exp`` and ``now`` are sequence numbers."""
    s = StreamDef("s", VW, CountWindow(3))
    plan = Join(WindowScan(s), WindowScan(s), "v", "v")
    events = [Arrival(float(i), "s", (i % 2, i % 3)) for i in range(1, 20)]
    query = check_against_oracle(plan, events)
    assert sum(query.answer().values()) == 5  # 2² + 1² of the last three


def test_unbounded_side_never_expires():
    """A stream without a window joins with ``exp = inf`` on its side."""
    plan = Join(WindowScan(StreamDef("s0", VW, None)),
                WindowScan(StreamDef("s1", VW, TimeWindow(4))), "v", "v")
    events = [Arrival(float(i), f"s{i % 2}", (i % 3, 0)) for i in range(1, 30)]
    check_against_oracle(plan, events + [Tick(100.0)],
                         allow_unbounded_state=True)


@pytest.mark.parametrize("batch", [None, 5])
def test_subscriber_attached_from_a_callback_of_the_run(batch):
    """``run`` binds the loop once; a subscriber attached while it runs
    (here from ``on_event``) still gets every later result."""
    plan = Join(WindowScan(StreamDef("s0", VW, TimeWindow(6))),
                WindowScan(StreamDef("s1", VW, TimeWindow(6))), "v", "v")
    events = [Arrival(float(i), f"s{i % 2}", (0, i)) for i in range(1, 21)]
    late, always = [], []

    def on_event(executor, event):
        if event.ts == 10.0:
            executor.subscribe(lambda t, now: late.append((t.values, now)))

    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
    query.run(events, on_event=on_event, batch=batch)
    twin = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
    twin.subscribe(lambda t, now: always.append((t.values, now)))
    twin.run(events, batch=batch)
    assert late and late == [entry for entry in always if entry[1] > 10.0]
    assert query.counters.snapshot() == twin.counters.snapshot()
