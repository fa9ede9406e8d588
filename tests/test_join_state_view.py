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

import operator
import pickle
import sys
from collections import Counter
from copy import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Arrival,
    ContinuousQuery,
    CountWindow,
    ExecutionConfig,
    Join,
    Mode,
    QueryGroup,
    ReferenceEvaluator,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    WindowScan,
)
from repro.engine.views import JoinAnswer, JoinStateView, PortView
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


# -- the answer's contract ---------------------------------------------------
#
# ``answer()`` on a join-state view copies the index buckets of every key
# stored on both sides into a :class:`JoinAnswer` and counts the live pairs
# only when first read.  Each test below runs per tuple and in batches of 64.

PATHS = [None, 64]


def _join(window: float):
    return Join(WindowScan(StreamDef("s0", VW, TimeWindow(window))),
                WindowScan(StreamDef("s1", VW, TimeWindow(window))), "v", "v")


def _trace(n: int, keys: int = 3, start: int = 0):
    return [Arrival(1.0 + 0.25 * i, f"s{i % 2}", (i % (2 * keys) // 2, i))
            for i in range(start, start + n)]


def _feed(query, oracle, events, batch):
    executor = query.executor
    if batch is None:
        for event in events:
            executor.process_event(event)
    else:
        for i in range(0, len(events), batch):
            executor.process_batch(events[i:i + batch])
    for event in events:
        oracle.observe(event)


def _taken(batch, arrivals=800):
    """A query over ``arrivals`` events, the answer taken then, and Q(then)
    from the Definition-1 oracle."""
    plan = _join(40.0)
    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
    assert isinstance(query.compiled.view, JoinStateView)
    oracle = ReferenceEvaluator()
    _feed(query, oracle, _trace(arrivals), batch)
    answer = query.answer()
    assert isinstance(answer, JoinAnswer)
    return query, oracle, answer, oracle.evaluate(plan, query.executor.now)


@pytest.mark.parametrize("batch", PATHS)
def test_answer_is_a_snapshot_of_its_instant(batch):
    """Read only after 500 more arrivals and a purge of every stored
    tuple, an answer is still the answer of the instant it was taken."""
    query, oracle, answer, want = _taken(batch)
    assert sum(want.values()) > 1000
    _feed(query, oracle, _trace(500, start=800), batch)
    later = query.answer()
    assert later == oracle.evaluate(query.plan, query.executor.now)
    _feed(query, oracle, [Tick(query.executor.now + 100.0)], batch)
    assert query.compiled.state_size() == 0
    assert not query.answer()
    assert answer == want
    assert later != want


def _set(x, values, n):
    x[values] = n
    return x


def _drop(x, values):
    del x[values]
    return x


# Every way of using a ``Counter`` that ``dict`` or ``Counter`` implement,
# as ``use(x, w, half)``: ``x`` is an answer not used before (or a copy of
# the oracle's Counter), ``w`` the oracle's Counter, ``half`` half of it.
USES = {
    "==": lambda x, w, h: x == w, "== reflected": lambda x, w, h: w == x,
    "== dict": lambda x, w, h: x == dict(w),
    "dict ==": lambda x, w, h: dict(w) == x,
    "!=": lambda x, w, h: x != h, "!= reflected": lambda x, w, h: h != x,
    "<=": lambda x, w, h: x <= w, "< reflected": lambda x, w, h: h < x,
    ">=": lambda x, w, h: x >= h, "> reflected": lambda x, w, h: w > x,
    "+": lambda x, w, h: x + h, "+ reflected": lambda x, w, h: h + x,
    "-": lambda x, w, h: x - h, "- reflected": lambda x, w, h: h - x,
    "&": lambda x, w, h: x & h, "& reflected": lambda x, w, h: h & x,
    "|": lambda x, w, h: x | h, "| reflected": lambda x, w, h: h | x,
    "dict |": lambda x, w, h: dict(h) | x,
    "unary +": lambda x, w, h: +x, "unary -": lambda x, w, h: -x,
    "+=": lambda x, w, h: operator.iadd(x, h),
    "-=": lambda x, w, h: operator.isub(x, h),
    "[]=": lambda x, w, h: _set(x, next(iter(h)), 7),
    "del": lambda x, w, h: _drop(x, next(iter(h))),
    "update": lambda x, w, h: (x.update(h), x)[1],
    "Counter()": lambda x, w, h: Counter(x),
    "Counter.update": lambda x, w, h: (h.update(x), h)[1],
    "dict()": lambda x, w, h: dict(x), "{**}": lambda x, w, h: {**x},
    "dict.update": lambda x, w, h: (lambda d: (d.update(x), d)[1])({}),
    "copy": lambda x, w, h: x.copy(), "copy.copy": lambda x, w, h: copy(x),
    "pickle": lambda x, w, h: pickle.loads(pickle.dumps(x)),
    "len": lambda x, w, h: len(x), "bool": lambda x, w, h: bool(x),
    "in": lambda x, w, h: next(iter(h)) in x,
    "[]": lambda x, w, h: [x[k] for k in w],
    "get": lambda x, w, h: x.get(next(iter(h))),
    "iter": lambda x, w, h: sorted(x),
    "items": lambda x, w, h: sorted(x.items()),
    "elements": lambda x, w, h: sorted(x.elements()),
    "total": lambda x, w, h: x.total(),
    "most_common": lambda x, w, h: sorted(x.most_common()),
    "repr": lambda x, w, h: repr(x).startswith("Counter({"),
}


@pytest.mark.parametrize("batch", PATHS)
def test_answer_is_a_counter_under_every_use(batch):
    """An answer not used before gives, under each use, what the oracle's
    ``Counter`` gives; after its first use it is a plain ``Counter``."""
    query, _oracle, answer, want = _taken(batch)
    half = Counter(dict(list(want.items())[::2]))
    assert isinstance(answer, Counter)
    for name, use in USES.items():
        fresh = query.answer()
        assert type(fresh) is JoinAnswer
        got = use(fresh, want, half.copy())
        assert got == use(want.copy(), want, half.copy()), name
        assert type(fresh) is Counter, name
        if isinstance(got, dict):
            assert type(got) is type(use(want.copy(), want, half.copy())), \
                name


def test_every_method_of_the_counter_counts_first():
    """Each method ``dict`` or ``Counter`` defines that can see the contents
    is one of the answer's own, which counts before it runs."""
    blind = {"__new__", "__init__", "__getattribute__", "__sizeof__",
             "__class_getitem__", "__missing__", "_keep_positive", "fromkeys",
             "__hash__", "__doc__", "__module__", "__dict__", "__weakref__"}
    for name in (set(vars(dict)) | set(vars(Counter))) - blind:
        assert name in vars(JoinAnswer), name


@pytest.mark.parametrize("batch", PATHS)
def test_answer_pickles_as_a_counter(batch):
    _query, _oracle, answer, want = _taken(batch)
    loaded = pickle.loads(pickle.dumps(answer))
    assert type(loaded) is Counter and loaded == want


@pytest.mark.parametrize("batch", PATHS)
def test_sharded_and_port_answers_equal_the_standalone_one(batch):
    """A serial two-shard run sums its shards' answers; a group member whose
    whole plan is a join-rooted producer reads that producer's view."""
    query, _oracle, answer, want = _taken(batch)
    events = _trace(800)
    sharded = ContinuousQuery(query.plan, ExecutionConfig(mode=Mode.UPA))
    result = sharded.run(events, batch=batch, shards=2,
                         shard_backend="serial")
    assert result.shards == 2 and result.answer() == answer == want
    group = QueryGroup()
    for name in ("a", "b"):
        group.add(name, _join(40.0), ExecutionConfig(mode=Mode.UPA))
    group.run(events, batch=batch)
    for name in ("a", "b"):
        assert type(group[name].compiled.view) is PortView
        (producer,) = group.shared_producers()
        assert type(producer.compiled.view.stored) is JoinStateView
        assert group[name].answer() == answer == want


def _blocks(call):
    """Memory blocks still held after ``call()``, and its result."""
    before = sys.getallocatedblocks()
    kept = call()
    return sys.getallocatedblocks() - before, kept


@pytest.mark.parametrize("batch", PATHS)
def test_taking_an_answer_allocates_per_key_not_per_pair(batch):
    """Taking an answer over 50 and over 5 000 result pairs, two keys
    either way, holds a few memory blocks per key, where a built answer
    would hold one value tuple per distinct pair."""
    blocks = {}
    for per_key in (5, 50):
        plan = _join(1000.0)
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        oracle = ReferenceEvaluator()
        _feed(query, oracle, _trace(4 * per_key, keys=2), batch)
        want = oracle.evaluate(plan, query.executor.now)
        assert sum(want.values()) == 2 * per_key ** 2
        blocks[per_key], answer = _blocks(query.answer)
        assert answer == want
    assert max(blocks.values()) < 32
