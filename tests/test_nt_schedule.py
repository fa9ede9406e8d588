"""NT expirations scheduled by the column prelude (DESIGN.md "One batch
loop", effect 5).

When every arrival of a monotone batch takes a column prelude and every
eager participant is one of those preludes' NT windows, the prelude pops
each window's expirations due by the batch's last clock, runs them through
the fused stateless prefix column-wise and queues each row's negatives at
the first row whose clock reaches their ``exp`` — ahead of that row's
arrival, in pass-plan order.  No expiration pass runs in such a batch.
These tests hold that schedule to the per-tuple loop: the subscriber
stream (content and order), the answer and every counter but touches and
probes, at batch 1, 7, 64 and 10 000, across the schedule's edges.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    ExecutionError,
    Mode,
    Predicate,
    Relation,
    RelationUpdate,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    from_window,
)
from repro.workloads import TrafficConfig, TrafficTraceGenerator, query1

V = Schema(["v"])
SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
BATCHES = [1, 7, 64, 10_000]
SMALL = Predicate(("v",), lambda vals: vals[0] <= 1, "v <= 1")


def _source(stream, window):
    return from_window(StreamDef(stream, V, TimeWindow(window)))


def _counters(query):
    snapshot = query.counters.snapshot()
    del snapshot["touches"], snapshot["probes"]
    return snapshot


def _replay(make_plan, events, batch):
    """Everything a batch must preserve, from a fresh NT query."""
    query = ContinuousQuery(make_plan(), ExecutionConfig(mode=Mode.NT))
    outputs = []
    query.subscribe(lambda t, now: outputs.append((t, now)))
    result = query.run(iter(events), batch=batch)
    return (outputs, query.answer(), _counters(query),
            result.events_processed, result.tuples_arrived)


def _assert_scheduled(make_plan, streams):
    loop = ContinuousQuery(make_plan(),
                           ExecutionConfig(mode=Mode.NT)).executor.batch_loop()
    assert loop.endswith(f"; NT expirations: scheduled ({streams})"), loop


def _assert_batches_equal_per_tuple(make_plan, events):
    base = _replay(make_plan, events, None)
    for batch in BATCHES:
        assert _replay(make_plan, events, batch) == base, batch
    return base


@st.composite
def traces(draw, streams=("s0", "s1"), max_events=80, vmax=4,
           gaps=(0.0, 0.0, 0.5, 1.0, 2.0)):
    """Arrivals with repeated timestamps (gap 0) and mid-stream ticks."""
    events = []
    ts = 0.0
    for gap in draw(st.lists(st.sampled_from(gaps), min_size=5,
                             max_size=max_events)):
        ts += gap
        if draw(st.sampled_from([0, 0, 0, 0, 1])):
            events.append(Tick(ts))
        else:
            events.append(Arrival(ts, draw(st.sampled_from(streams)),
                                  (draw(st.integers(0, vmax - 1)),)))
    events.append(Tick(ts + 50.0))
    return events


class TestPaperQueries:
    @pytest.mark.parametrize("protocol", ["ftp", "telnet"])
    def test_query1_filter_prefix(self, protocol):
        """A filtered row's negative vanishes in the prefix, as the pass
        would drop it at the selection."""
        gen = TrafficTraceGenerator(TrafficConfig(n_links=4, n_src_ips=40,
                                                  seed=7))
        events = list(gen.events(3000))

        def make_plan():
            return query1(gen, 60, protocol=protocol)

        _assert_scheduled(make_plan, "link0, link1")
        outputs = _assert_batches_equal_per_tuple(make_plan, events)[0]
        assert any(t.sign < 0 for t, _now in outputs)


class TestScheduleEdges:
    @SETTINGS
    @given(events=traces())
    def test_span_shorter_than_a_batch(self, events):
        """A window of 2 time units: rows are inserted and expire inside
        one batch, and ticks carry negatives of their own."""
        def make_plan():
            return (_source("s0", 2).where(SMALL)
                    .join(_source("s1", 3).project("v"), on="v").build())

        _assert_scheduled(make_plan, "s0, s1")
        _assert_batches_equal_per_tuple(make_plan, events)

    def test_exp_equal_to_a_later_clock(self):
        """Repeated timestamps whose ``exp`` is exactly a later event's
        clock: that event's pass pops them, before its own arrival."""
        events = [Arrival(float(ts), "s0", (ts % 3,))
                  for ts in (0, 0, 0, 1, 1, 2, 2, 2, 3, 4, 4)]
        events += [Tick(5.0), Arrival(5.0, "s0", (1,)), Tick(9.0)]

        def make_plan():
            return _source("s0", 2).project("v").distinct().build()

        _assert_scheduled(make_plan, "s0")
        outputs = _assert_batches_equal_per_tuple(make_plan, events)[0]
        assert [now for t, now in outputs if t.sign < 0]

    @SETTINGS
    @given(events=traces(streams=("s0",)))
    def test_self_join(self, events):
        """Two leaves on one stream: each row runs their negatives in
        pass-plan order, then the row's two survivors."""
        def make_plan():
            return (_source("s0", 3).where(SMALL)
                    .join(_source("s0", 5).project("v"), on="v").build())

        _assert_scheduled(make_plan, "s0")
        _assert_batches_equal_per_tuple(make_plan, events)

    @SETTINGS
    @given(events=traces(), data=st.data())
    def test_relation_updates_inside_a_batch(self, events, data):
        """R-join updates land at their rows, after that row's scheduled
        negatives.  (NRR-joins do not run under NT, Section 5.4.2.)"""
        rows = []
        mixed = []
        for event in events:
            action = data.draw(st.sampled_from(["", "", "insert", "delete"]))
            if action == "insert":
                rows.append((data.draw(st.integers(0, 3)),))
                mixed.append(RelationUpdate(event.ts, "r", "insert",
                                            rows[-1]))
            elif action == "delete" and rows:
                mixed.append(RelationUpdate(event.ts, "r", "delete",
                                            rows.pop(0)))
            mixed.append(event)

        def make_plan():
            return (_source("s0", 3).where(SMALL)
                    .join(_source("s1", 4).where(SMALL), on="v")
                    .join_relation(Relation("r", Schema(["w"])), "l_v", "w")
                    .build())

        _assert_scheduled(make_plan, "s0, s1")
        _assert_batches_equal_per_tuple(make_plan, mixed)

    def test_prefix_less_stream_keeps_the_pass(self):
        plan = _source("s0", 3).where(SMALL).join(_source("s1", 3),
                                                  on="v").build()
        loop = ContinuousQuery(plan, ExecutionConfig(mode=Mode.NT)) \
            .executor.batch_loop()
        assert loop.endswith("; NT expirations: per pass "
                             "(s1 take(s) row arrivals)"), loop


class TestTimestampRegression:
    def test_raises_at_the_offender_with_its_prefix_applied(self):
        def make_plan():
            return (_source("s0", 4).where(SMALL)
                    .join(_source("s1", 4).project("v"), on="v").build())

        head = [Arrival(float(i), f"s{i % 2}", (i % 3,)) for i in range(12)]
        batch = [Arrival(12.0 + i, f"s{i % 2}", (i % 3,)) for i in range(30)]
        batch[20] = Arrival(11.0, "s0", (1,))
        query = ContinuousQuery(make_plan(), ExecutionConfig(mode=Mode.NT))
        outputs = []
        query.subscribe(lambda t, now: outputs.append((t, now)))
        query.executor.process_batch(head)
        with pytest.raises(ExecutionError, match="out-of-order"):
            query.executor.process_batch(batch)
        reference = ContinuousQuery(make_plan(),
                                    ExecutionConfig(mode=Mode.NT))
        expected = []
        reference.subscribe(lambda t, now: expected.append((t, now)))
        for event in head + batch[:20]:
            reference.executor.process_event(event)
        assert outputs == expected
        assert query.answer() == reference.answer()
        assert _counters(query) == _counters(reference)
        assert query.executor.tuples_arrived == 32
