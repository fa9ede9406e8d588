"""Property-based tests (hypothesis): the engine equals the oracle.

Two properties anchor the whole system:

1. For any random event sequence and any plan from a random plan grammar,
   the materialized answer after every event equals the one-time relational
   evaluation (Definition 1) — under every applicable strategy.
2. State buffers behave like a reference model (a plain list with the same
   interface) under any interleaving of insert / delete / purge.

Single-attribute tuples keep negation's tuple choice unambiguous, making the
oracle comparison exact (see repro.core.semantics).
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    Predicate,
    ReferenceEvaluator,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    Tuple,
    count,
    from_window,
)
from repro.buffers import FifoBuffer, HashBuffer, ListBuffer, PartitionedBuffer

V = Schema(["v"])
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# event sequences
# ---------------------------------------------------------------------------

@st.composite
def event_sequences(draw, max_events=60, n_streams=2, vmax=4):
    gaps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                         min_size=5, max_size=max_events))
    events = []
    ts = 0.0
    for gap in gaps:
        ts += gap
        stream = f"s{draw(st.integers(0, n_streams - 1))}"
        value = draw(st.integers(0, vmax - 1))
        events.append(Arrival(ts, stream, (value,)))
    events.append(Tick(ts + 50.0))
    return events


# ---------------------------------------------------------------------------
# plan grammar
# ---------------------------------------------------------------------------

def _window_sources(window):
    s0 = StreamDef("s0", V, TimeWindow(window))
    s1 = StreamDef("s1", V, TimeWindow(window))
    return from_window(s0), from_window(s1)


@st.composite
def negation_free_plans(draw):
    window = draw(st.sampled_from([4, 8, 16]))
    b0, b1 = _window_sources(window)
    shape = draw(st.sampled_from(
        ["select", "union", "join", "intersect", "distinct",
         "distinct_join", "groupby", "select_join"]))
    threshold = draw(st.integers(0, 3))
    pred = Predicate(("v",), lambda vals, k=threshold: vals[0] <= k,
                     f"v <= {threshold}")
    if shape == "select":
        return b0.where(pred).build()
    if shape == "union":
        return b0.union(b1).build()
    if shape == "join":
        return b0.join(b1, on="v").build()
    if shape == "intersect":
        return b0.intersect(b1).build()
    if shape == "distinct":
        return b0.distinct().build()
    if shape == "distinct_join":
        return b0.distinct().join(b1.distinct(), on="v").build()
    if shape == "groupby":
        return b0.group_by(["v"], [count()]).build()
    return b0.where(pred).join(b1, on="v").build()


@st.composite
def strict_plans(draw):
    window = draw(st.sampled_from([4, 8, 16]))
    b0, b1 = _window_sources(window)
    shape = draw(st.sampled_from(["negation", "negation_select",
                                  "negation_groupby"]))
    negated = b0.minus(b1, on="v")
    if shape == "negation":
        return negated.build()
    if shape == "negation_select":
        threshold = draw(st.integers(0, 3))
        pred = Predicate(("v",), lambda vals, k=threshold: vals[0] <= k,
                         f"v <= {threshold}")
        return negated.where(pred).build()
    return negated.group_by(["v"], [count()]).build()


def _assert_engine_equals_oracle(plan, events, mode, **cfg):
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode, **cfg))
    oracle = ReferenceEvaluator()
    for event in events:
        query.executor.process_event(event)
        oracle.observe(event)
        got = query.answer()
        want = oracle.evaluate(plan, query.executor.now)
        assert got == want, (
            f"mode={mode.value} cfg={cfg} after {event!r}: "
            f"engine={dict(got)} oracle={dict(want)}"
        )


class TestDefinitionOneHolds:
    @SETTINGS
    @given(plan=negation_free_plans(), events=event_sequences())
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_negation_free(self, plan, events, mode):
        _assert_engine_equals_oracle(plan, events, mode)

    @SETTINGS
    @given(plan=strict_plans(), events=event_sequences(vmax=3))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA],
                             ids=["nt-auto", "upa-partitioned"])
    def test_strict(self, plan, events, mode):
        _assert_engine_equals_oracle(plan, events, mode)

    @SETTINGS
    @given(events=event_sequences(n_streams=3, vmax=3),
           n_partitions=st.sampled_from([1, 3, 10, 40]))
    def test_partition_count_invariance(self, events, n_partitions):
        b0, b1 = _window_sources(8)
        s2 = StreamDef("s2", V, TimeWindow(8))
        plan = (b0.join(b1, on="v")
                .join(from_window(s2), on="l_v", right_on="v").build())
        _assert_engine_equals_oracle(plan, events, Mode.UPA,
                                     n_partitions=n_partitions)

    @SETTINGS
    @given(events=event_sequences(), interval=st.sampled_from(
        [0.05, 1.0, 25.0]))
    def test_lazy_interval_invariance(self, events, interval):
        b0, b1 = _window_sources(8)
        plan = b0.join(b1, on="v").build()
        _assert_engine_equals_oracle(plan, events, Mode.UPA,
                                     lazy_interval=interval)


# ---------------------------------------------------------------------------
# buffer model check
# ---------------------------------------------------------------------------

@st.composite
def buffer_ops(draw, max_ops=60):
    ops = []
    now = 0.0
    alive = []
    for _ in range(draw(st.integers(5, max_ops))):
        kind = draw(st.sampled_from(["insert", "insert", "insert",
                                     "purge", "delete"]))
        if kind == "insert":
            now += draw(st.sampled_from([0.0, 0.5, 1.0]))
            exp = now + draw(st.sampled_from([1.0, 3.0, 7.0]))
            value = draw(st.integers(0, 3))
            ops.append(("insert", Tuple((value,), now, exp)))
            alive.append((value, exp))
        elif kind == "purge":
            now += draw(st.sampled_from([0.5, 2.0]))
            ops.append(("purge", now))
        elif alive:
            value, exp = draw(st.sampled_from(alive))
            ops.append(("delete", Tuple((value,), now, exp, sign=-1)))
    return ops


class _ModelBuffer:
    """Reference model: a plain list with the same contract."""

    def __init__(self):
        self.items = []

    def insert(self, t):
        self.items.append(t)

    def delete(self, t):
        for i, stored in enumerate(self.items):
            if stored.values == t.values and stored.exp == t.exp:
                del self.items[i]
                return True
        return False

    def purge_expired(self, now):
        expired = [t for t in self.items if t.exp <= now]
        self.items = [t for t in self.items if t.exp > now]
        return expired

    def contents(self):
        return Counter((t.values, t.exp) for t in self.items)


def _buffer_factories():
    return {
        "list": lambda: ListBuffer(lambda t: t.values),
        "hash": lambda: HashBuffer(lambda t: t.values),
        "partitioned": lambda: PartitionedBuffer(
            span=8, n_partitions=4, key_of=lambda t: t.values),
    }


class TestBuffersMatchModel:
    @SETTINGS
    @given(ops=buffer_ops())
    @pytest.mark.parametrize("kind", ["list", "hash", "partitioned"])
    def test_same_contents_as_model(self, ops, kind):
        real = _buffer_factories()[kind]()
        model = _ModelBuffer()
        for op, arg in ops:
            if op == "insert":
                real.insert(arg)
                model.insert(arg)
            elif op == "delete":
                assert real.delete(arg) == model.delete(arg)
            elif kind != "hash":  # NT-only: never purged by timestamp
                got = Counter((t.values, t.exp)
                              for t in real.purge_expired(arg))
                want = Counter((t.values, t.exp)
                               for t in model.purge_expired(arg))
                assert got == want
            assert Counter((t.values, t.exp) for t in real) == \
                model.contents()

    @SETTINGS
    @given(ops=buffer_ops())
    def test_fifo_matches_model_when_input_is_fifo(self, ops):
        """FifoBuffer only accepts exp-monotone insertions; feed it the
        sorted-insert subsequence and check the same contract."""
        real = FifoBuffer(lambda t: t.values)
        model = _ModelBuffer()
        last_exp = float("-inf")
        for op, arg in ops:
            if op == "insert":
                if arg.exp < last_exp:
                    continue
                last_exp = arg.exp
                real.insert(arg)
                model.insert(arg)
            elif op == "purge":
                got = Counter((t.values, t.exp)
                              for t in real.purge_expired(arg))
                want = Counter((t.values, t.exp)
                               for t in model.purge_expired(arg))
                assert got == want
        assert Counter((t.values, t.exp) for t in real) == model.contents()
