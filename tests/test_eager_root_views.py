"""The eager roots' state equals the views it replaced.

A plan rooted at group-by stores no results: ``answer()`` reads the
operator's group table (``GroupStateView``), and while no subscriber
listens the operator builds no result tuple and expires its own input
instead of asking the driver for expiration passes.  A UPA plan rooted at
the δ operator answers from δ's output buffer (``DeltaStateView``).  What
makes both safe is checked here on random plans and traces: at any instant
the state read equals the Definition-1 snapshot *and* the view a consumer
rebuilds from the output stream — whoever is or is not listening, on every
driving path, under every strategy — and floating-point aggregates come
out bit-identical on every path, because every schedule folds the same
inputs in the same order.
"""

import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    AggregateSpec,
    Arrival,
    ContinuousQuery,
    DupElim,
    ExecutionConfig,
    GroupBy,
    Join,
    Mode,
    Project,
    QueryGroup,
    ReferenceEvaluator,
    Schema,
    Select,
    StreamDef,
    Tick,
    TimeWindow,
    WindowScan,
)
from repro.core.plan import Predicate
from repro.engine.views import (BufferView, DeltaStateView, GroupStateView,
                                GroupView)
from repro.testing import reference_step

ABXY = Schema(["a", "b", "x", "y"])
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: How a trace is driven: the compiled per-tuple closure, the Section-2
#: reference loop, or micro-batches of that many events.
DRIVES = ("event", "reference", 1, 7, 64)
MODES = (Mode.NT, Mode.DIRECT, Mode.UPA)
#: ``y`` values.  Quarters add and subtract exactly, so the from-scratch
#: oracle is matched bit for bit; tenths do not, so they expose any
#: difference in fold order between two driving paths.
QUARTERS = (0.25, 0.5, 1.75, 3.0, -2.25)
TENTHS = (0.1, 0.2, 0.3, 0.7, 1.1, -2.3)


def scan(name, window):
    return WindowScan(StreamDef(name, ABXY, TimeWindow(window)))


@st.composite
def sources(draw):
    """What the root reads, with its (a, b, x, y) attribute names: a
    window (WKS), a filtered window (arrivals the root never sees), or a
    join of two windows of different sizes (WK: inputs do not expire in
    arrival order)."""
    shape = draw(st.sampled_from(["scan", "select", "join"]))
    w0, w1 = draw(st.tuples(*[st.sampled_from([2, 5, 13])] * 2))
    if shape == "join":
        names = ["l_a", "l_b", "r_x", "l_y"]
        return Project(Join(scan("s0", w0), scan("s1", w1), "a", "a"),
                       names), names
    if shape == "select":
        return Select(scan("s0", w0), Predicate(
            ("b",), lambda vals: vals[1] != 1, "b != 1")), list(ABXY.fields)
    return scan("s0", w0), list(ABXY.fields)


@st.composite
def eager_roots(draw):
    """A group-by (1-2 keys; every aggregate kind over the int ``x`` and
    the float ``y``) or a DISTINCT over 1-3 attributes."""
    source, (a, b, x, y) = draw(sources())
    if draw(st.booleans()):
        return DupElim(Project(source, draw(st.sampled_from(
            [[a], [a, b], [b, a, x]]))))
    kinds = draw(st.lists(
        st.tuples(st.sampled_from(AggregateSpec.KINDS),
                  st.sampled_from([x, y])),
        min_size=1, max_size=4))
    return GroupBy(source, draw(st.sampled_from([[a], [a, b]])), [
        AggregateSpec(kind, None if kind == "count" else attr, f"g{i}")
        for i, (kind, attr) in enumerate(kinds)])


@st.composite
def traces(draw, floats):
    """Arrivals over small domains (whole duplicates are common) with zero
    gaps, on the two read streams and one nobody reads, ending with ticks
    that expire part, then all, of the state."""
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                         min_size=4, max_size=60))
    events, ts = [], 1.0
    for gap in gaps:
        ts += gap
        stream = draw(st.sampled_from(["s0", "s0", "s1", "other"]))
        values = (draw(st.integers(0, 2)), draw(st.integers(0, 1)),
                  draw(st.integers(-3, 9)), draw(st.sampled_from(floats)))
        events.append(Arrival(ts, stream, values))
    return events + [Tick(ts + 2.0), Tick(ts + 20.0)]


def close(plan, got: Counter, want: Counter) -> bool:
    """Equal up to float round-off in the aggregates (rows pair up in
    sorted order: keys lead, and a rounding error never reorders them).
    A STDDEV column gets a square root's absolute tolerance: over equal
    values it is the root of a variance whose round-off is about eps · Σy²,
    so its error is about sqrt(eps · Σy²) — 2e-9 for five tenths, up to
    ~3e-7 for these traces.  Every other column keeps 1e-9."""
    roots = set()
    if isinstance(plan, GroupBy):
        roots = {len(plan.keys) + i for i, spec in enumerate(plan.aggregates)
                 if spec.kind == "stddev"}
    rows, others = (sorted(c.elements(), key=repr) for c in (got, want))
    return len(rows) == len(others) and all(
        a == b or (isinstance(a, float) and isinstance(b, float)
                   and math.isclose(a, b, rel_tol=1e-9,
                                    abs_tol=1e-6 if col in roots else 1e-9))
        for row, other in zip(rows, others)
        for col, (a, b) in enumerate(zip(row, other)))


def rebuilt(plan, stream, now) -> Counter:
    """The view a consumer keeps from the output stream alone: replacement
    by group for a group-by, ``(values, exp)`` bookkeeping otherwise."""
    if isinstance(plan, GroupBy):
        latest = {}
        for _at, values, _exp, sign in stream:
            group = values[:len(plan.keys)]
            if sign > 0:
                latest[group] = values
            else:
                latest.pop(group, None)
        return Counter(latest.values())
    kept = Counter()
    for _at, values, exp, sign in stream:
        kept[values, exp] += sign
    out = Counter()
    for (values, exp), n in kept.items():
        if exp > now and n > 0:
            out[values] += n
    return out


def expected_view(plan, mode):
    if isinstance(plan, GroupBy):
        return GroupStateView
    return DeltaStateView if mode is Mode.UPA else BufferView


def drive(plan, events, config, how, subscribe_at, exact):
    """Run ``events`` in slices; at every slice boundary compare
    ``answer()`` with the oracle and — when subscribed from the start —
    with the view rebuilt from the stream delivered so far, and check that
    no group-by input that is due is still stored.  ``subscribe_at`` is the
    event index (a slice boundary) at which a subscriber attaches, or None.
    Returns the subscribed stream as ``(slice start, values, exp, sign)``,
    the answers as ``(events fed, answer)``, and the final counters."""
    query = ContinuousQuery(plan, config)
    view = query.compiled.view
    assert type(view) is expected_view(plan, config.mode)
    executor = query.executor
    root_op = query.compiled.op_for(plan)
    oracle = ReferenceEvaluator()
    position = [0]
    stream, answers = [], []
    materialized = subscribe_at == 0

    def callback(t, now):
        stream.append((position[0], t.values, t.exp, t.sign))

    step = how if isinstance(how, int) else 1
    for start in range(0, len(events), step):
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
        got = query.answer()
        want = oracle.evaluate(plan, executor.now)
        assert got == want if exact else close(plan, got, want), (
            f"after event {start + len(chunk) - 1} ({how=}): "
            f"{got} != {want}")
        if materialized:
            assert got == rebuilt(plan, stream, executor.now)
        if isinstance(plan, GroupBy) and config.mode is not Mode.NT:
            ((_label, stored),) = root_op.state_buffers()
            assert all(t.exp > executor.now for t in stored)
        if not isinstance(view, BufferView):
            assert len(view) == 0
        answers.append((start + len(chunk), got))
    return stream, answers, query.counters.snapshot()


def without(counters: dict, *names) -> dict:
    return {k: v for k, v in counters.items() if k not in names}


def check_every_drive(plan, events, mode, exact):
    """The three subscription states on all five driving paths."""
    config = ExecutionConfig(mode=mode)
    baseline = None
    for how in DRIVES:
        step = how if isinstance(how, int) else 1
        halfway = len(events) // 2 // step * step
        # Nobody listens: nothing is built (oracle checked inside).
        _none, quiet_answers, quiet = drive(
            plan, events, config, how, None, exact)
        # Always subscribed: the stream rebuilds the same view.
        stream, answers, counters = drive(plan, events, config, how, 0, exact)
        assert answers == quiet_answers
        # Subscribed half-way: the suffix of the always-subscribed stream.
        late, late_answers, late_counters = drive(
            plan, events, config, how, halfway, exact)
        assert late == [entry for entry in stream if entry[0] >= halfway]
        assert late_answers == answers
        # The view is virtual whoever listens: the counters agree — all of
        # them one event at a time; all but ``touches`` in batches, where
        # an unread group-by expires on its own schedule.
        schedule = ("touches",) if isinstance(how, int) else ()
        assert without(quiet, *schedule) == without(counters, *schedule) \
            == without(late_counters, *schedule)
        # Every driving path: the same answers (floats bit for bit) after
        # the same events, the same stream, the same counters (batching
        # amortizes only ``touches``).
        flat = [entry[1:] for entry in stream]
        structural = without(counters, "touches")
        if baseline is None:
            baseline = dict(answers), flat, structural
        else:
            for fed, got in answers:
                assert got == baseline[0][fed], (how, fed)
            assert flat == baseline[1], how
            assert structural == baseline[2], how


@SETTINGS
@given(plan=eager_roots(), events=traces(QUARTERS),
       mode=st.sampled_from(MODES))
def test_state_read_equals_oracle_and_materialized_stream(plan, events, mode):
    check_every_drive(plan, events, mode, exact=True)


@SETTINGS
@given(plan=eager_roots(), events=traces(TENTHS),
       mode=st.sampled_from(MODES))
def test_inexact_floats_are_bit_identical_on_every_path(plan, events, mode):
    """With tenths the incremental sums differ from the oracle's
    from-scratch sums in the last bits — and still not from each other."""
    check_every_drive(plan, events, mode, exact=False)


def test_stddev_of_equal_tenths_is_a_rounded_zero():
    """The STDDEV tolerance case: after 0.2 expires, four equal 0.1s leave
    a variance that rounds to ~3.5e-18, whose root is ~1.9e-9 against the
    oracle's 0.0."""
    events = [Arrival(1.0 + 3.0 * i, "s0", (0, 0, 0, y))
              for i, y in enumerate((0.2, 0.1, 0.1, 0.1, 0.1))]
    plan = GroupBy(scan("s0", 13), ["a"], [AggregateSpec("stddev", "y", "g0")])
    check_every_drive(plan, events + [Tick(15.0), Tick(33.0)], Mode.NT,
                      exact=False)


GROUPED = GroupBy(scan("s0", 4), ["a"],
                  [AggregateSpec("count", None, "n"),
                   AggregateSpec("sum", "y", "total"),
                   AggregateSpec("min", "x", "low")])
DISTINCT = DupElim(Project(scan("s0", 4), ["a", "b"]))


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("how", DRIVES, ids=str)
def test_a_group_that_empties_and_refills_is_one_row(mode, how):
    events = [Arrival(1.0, "s0", (7, 0, 5, 0.5)),
              Arrival(2.0, "s0", (7, 0, 3, 0.25)),
              Tick(9.0),                         # both expired: no group 7
              Arrival(10.0, "s0", (7, 1, 8, 1.75)),
              Arrival(10.0, "s0", (8, 1, 8, 1.75))]
    query = ContinuousQuery(GROUPED, ExecutionConfig(mode=mode))
    step = how if isinstance(how, int) else 1
    seen = []
    for start in range(0, len(events), step):
        chunk = events[start:start + step]
        if how == "event":
            query.executor.process_event(chunk[0])
        elif how == "reference":
            reference_step(query.executor, chunk[0])
        else:
            query.executor.process_batch(chunk)
        seen.append(query.answer())
    assert seen[-1] == Counter({(7, 1, 1.75, 8): 1, (8, 1, 1.75, 8): 1})
    if step == 1:
        assert seen[1] == Counter({(7, 2, 0.75, 3): 1})
        assert seen[2] == Counter()
    assert query.compiled.op_for(GROUPED).group_count() == 2


def trace_for(n=160):
    return [Arrival(1.0 + i * 0.5, "s0",
                    (i % 5, i % 2, i % 7, QUARTERS[i % 5]))
            for i in range(n)] + [Tick(1.0 + n * 0.5 + 1.0)]


def oracle_answer(plan, events):
    oracle = ReferenceEvaluator()
    for event in events:
        oracle.observe(event)
    return oracle.evaluate(plan, events[-1].ts)


@pytest.mark.parametrize("plan", [GROUPED, DISTINCT],
                         ids=["group-by", "distinct"])
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_sharded_runs_give_the_oracle_answer(plan, backend):
    events = trace_for()
    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
    result = query.run(iter(events), batch=16, shards=2,
                       shard_backend=backend)
    assert result.fallback_reason is None
    assert result.answer() == oracle_answer(plan, events)


@pytest.mark.parametrize("shared", [False, True],
                         ids=["independent", "shared"])
def test_query_group_members_give_the_oracle_answer(shared):
    """Independent members answer from operator state.  In a shared group
    the twins' whole plan lives in one producer: they keep the stored view
    (a member's plan is one port, it has no operator state to read)."""
    events = trace_for()
    group = QueryGroup(shared=shared)
    for name, plan in (("g1", GROUPED), ("g2", GROUPED),
                       ("d1", DISTINCT), ("d2", DISTINCT)):
        group.add(name, plan, ExecutionConfig(mode=Mode.UPA))
    group.run(events, batch=16)
    for name, plan, state_view, stored in (
            ("g1", GROUPED, GroupStateView, GroupView),
            ("d2", DISTINCT, DeltaStateView, BufferView)):
        assert group[name].answer() == oracle_answer(plan, events)
        assert type(group[name].compiled.view) is (
            stored if shared else state_view)
