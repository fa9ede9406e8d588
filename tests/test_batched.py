"""Micro-batch execution path: exact equivalence and metric fixes.

The batched path (``run(..., batch=N)``) amortizes expiration checks but
must be observationally identical to per-tuple processing: the same
subscriber output sequence (insertions and negative tuples, in order), the
same final answer multiset and the same expiration count.  Hypothesis
drives random plans, random traces (including mid-stream Ticks, which force
expiration boundaries inside batches) and random batch sizes through all
three strategies.

Also here: regression tests for the per-1000-tuples metric, which used to
divide by *all* events — Ticks and relation updates inflated the
denominator and made tick-heavy traces look artificially fast.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    CountWindow,
    ExecutionConfig,
    ExecutionError,
    Mode,
    Predicate,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    count,
    from_window,
)

from conftest import fifo_negation_plan

V = Schema(["v"])
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def traces(draw, max_events=60, n_streams=2, vmax=4):
    """Event sequences with mid-stream Ticks so expiration boundaries land
    inside batches, not only between them."""
    gaps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 6.0]),
                         min_size=5, max_size=max_events))
    events = []
    ts = 0.0
    for gap in gaps:
        ts += gap
        if draw(st.sampled_from([0, 0, 0, 0, 1])):
            events.append(Tick(ts))
        else:
            stream = f"s{draw(st.integers(0, n_streams - 1))}"
            events.append(Arrival(ts, stream,
                                  (draw(st.integers(0, vmax - 1)),)))
    events.append(Tick(ts + 50.0))
    return events


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
    negated = b0.minus(b1, on="v")
    if draw(st.booleans()):
        return negated.build()
    return negated.group_by(["v"], [count()]).build()


def _replay(plan, events, batch, mode, **cfg):
    """Full run; returns everything the batched path must preserve."""
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode, **cfg))
    outputs = []
    query.subscribe(lambda t, now: outputs.append((t, now)))
    result = query.run(iter(events), batch=batch)
    return {
        "outputs": outputs,
        "answer": query.answer(),
        "expirations": query.counters.expirations,
        "events": result.events_processed,
        "tuples": result.tuples_arrived,
    }


class TestBatchedEqualsPerTuple:
    @SETTINGS
    @given(plan=negation_free_plans(), events=traces(),
           batch=st.sampled_from([1, 2, 3, 7, 64]))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_negation_free(self, plan, events, batch, mode):
        base = _replay(plan, events, None, mode)
        got = _replay(plan, events, batch, mode)
        assert got == base

    @SETTINGS
    @given(plan=strict_plans(), events=traces(vmax=3),
           batch=st.sampled_from([2, 7, 64]))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA],
                             ids=["nt-auto", "upa-partitioned"])
    def test_strict(self, plan, events, batch, mode):
        base = _replay(plan, events, None, mode)
        got = _replay(plan, events, batch, mode)
        assert got == base

    @SETTINGS
    @given(events=traces(), batch=st.sampled_from([2, 64]),
           interval=st.sampled_from([0.05, 1.0, 25.0]))
    def test_lazy_interval(self, events, batch, interval):
        """Lazy purge decisions are replayed per event, so the batched path
        must agree for any purge interval."""
        b0, b1 = _window_sources(8)
        plan = b0.join(b1, on="v").build()
        base = _replay(plan, events, None, Mode.UPA, lazy_interval=interval)
        got = _replay(plan, events, batch, Mode.UPA, lazy_interval=interval)
        assert got == base


class TestBulkDeliver:
    """DELIVER hands a whole output list to the view in one call — unless a
    subscriber is attached (or the list holds a negative), when each result
    is applied and *then* announced before the next one is touched."""

    @pytest.mark.parametrize("batch", [None, 1, 7, 64])
    def test_subscriber_sees_each_result_applied_in_stream_order(self, batch):
        b0, b1 = _window_sources(8)
        plan = b0.join(b1, on="v").build()  # one arrival, many results
        events = [Arrival(0.25 * i, f"s{i % 2}", (i % 3,)) for i in range(120)]
        events.append(Tick(60.0))

        def replay(listen, batch):
            query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
            stream = []
            if listen:
                view = query.executor.compiled.view
                # Live results at callback time: this one is in, the rest
                # of its output list is not yet.
                query.subscribe(lambda t, now: stream.append(
                    (t, now, sum(view.snapshot(now).values()))))
            result = query.run(iter(events), batch=batch)
            return stream, result.answer(), result.counters.snapshot()

        base_stream, base_answer, base_counters = replay(True, None)
        assert len(base_stream) > 200
        sizes = [size for _t, _now, size in base_stream]
        assert any(b == a + 1 for a, b in zip(sizes, sizes[1:]))
        stream, answer, counters = replay(True, batch)
        assert stream == base_stream and answer == base_answer
        # The bulk call (nobody listening) installs the same results at the
        # same cost.
        _none, bulk_answer, bulk_counters = replay(False, batch)
        assert bulk_answer == base_answer
        if batch is None:
            assert bulk_counters == base_counters
        else:
            assert bulk_counters == counters


def _loop_cases():
    """Plans on each side of the column-prelude rule, with the
    ``-- columnar:`` explain footer each must report."""
    b0, b1 = _window_sources(8)
    small = Predicate(("v",), lambda vals: vals[0] <= 1, "v <= 1")
    counted = from_window(StreamDef("s0", V, CountWindow(3)))
    return {
        "filter-prefix-join": (
            b0.where(small).join(b1, on="v").build(),
            "one loop; column prelude: s0 (1 plan(s)); "
            "row arrivals: s1 (no stateless prefix)"),
        "bare-minus": (
            b0.minus(b1, on="v").build(),
            "one loop; column prelude: none; row arrivals: "
            "s0 (no stateless prefix), s1 (no stateless prefix)"),
        "bare-group-by": (
            b0.group_by(["v"], [count()]).build(),
            "one loop; column prelude: none; "
            "row arrivals: s0 (no stateless prefix)"),
        "count-window": (
            counted.where(small).distinct().build(),
            "one loop; column prelude: none; row arrivals: s0 (count window)"),
    }


LOOP_CASES = _loop_cases()


class TestLoopSelection:
    """Every driver runs the one batch loop; the compiled query only picks
    which streams get a column prelude, and either way the loop must stay
    identical to per-tuple execution."""

    @SETTINGS
    @given(events=traces(vmax=3), batch=st.sampled_from([2, 7, 64]))
    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_chosen_loop_equals_per_tuple(self, case, events, batch):
        plan, footer = LOOP_CASES[case]
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        assert f"-- columnar: {footer}\n" in query.explain() + "\n"
        assert _replay(plan, events, batch, Mode.UPA) \
            == _replay(plan, events, None, Mode.UPA)


def _counters(query):
    """Every counter a batch must preserve: all but touches and probes,
    the redundant work the amortized pass removes."""
    snapshot = query.counters.snapshot()
    del snapshot["touches"], snapshot["probes"]
    return snapshot


def _relation_replay(make_plan, events, batch):
    """:func:`_replay` of a plan over a fresh relation, with every
    counter but touches and probes."""
    query = ContinuousQuery(make_plan(), ExecutionConfig(mode=Mode.UPA))
    outputs = []
    query.subscribe(lambda t, now: outputs.append((t, now)))
    result = query.run(iter(events), batch=batch)
    return (outputs, query.answer(), _counters(query),
            result.events_processed, result.tuples_arrived)


class TestNoFallbacks:
    """No batch leaves the one loop: a non-monotone batch raises at its
    offender, and count-window and relation-update batches run it and
    equal per-tuple runs."""

    @pytest.mark.parametrize("case", ["filter-prefix-join", "fifo-negation"])
    def test_non_monotone_batch_raises_with_its_prefix_applied(self, case):
        """A 64-event batch whose 41st event goes back in time.  Under the
        FIFO negation (Query 3's text) the regression is the input that
        would break its per-side arrival order."""
        def make_plan():
            if case == "fifo-negation":
                return fifo_negation_plan()
            return LOOP_CASES[case][0]

        head = [Arrival(1.0, "s0", (1,)), Arrival(2.0, "s1", (1,))]
        batch = [Arrival(4.0 + i, f"s{i % 2}", (i % 3,)) for i in range(64)]
        batch[40] = Arrival(3.0, "s0", (1,))
        query = ContinuousQuery(make_plan(), ExecutionConfig(mode=Mode.UPA))
        driver = query.executor
        driver.process_batch(head)
        with pytest.raises(ExecutionError, match="out-of-order"):
            driver.process_batch(batch)
        reference = ContinuousQuery(make_plan(),
                                    ExecutionConfig(mode=Mode.UPA))
        for event in head + batch[:40]:
            reference.executor.process_event(event)
        assert driver.now == 43.0
        assert driver.answer() == reference.answer()
        assert driver._events_processed \
            == reference.executor._events_processed == 42
        assert _counters(query) == _counters(reference)
        assert driver.tuples_arrived == 42
        assert "fallback" not in query.explain()

    def test_count_window_batches(self):
        plan, footer = LOOP_CASES["count-window"]
        events = [Arrival(float(i), "s0", (i % 2,)) for i in range(10)]
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        result = query.run(events, batch=4)
        assert f"-- columnar: {footer}\n" in query.explain() + "\n"
        assert not result.metrics.find("batch_fallback_total")
        assert _replay(plan, events, 4, Mode.UPA) \
            == _replay(plan, events, None, Mode.UPA)

    def test_relation_update_batch(self):
        from repro import Relation, RelationUpdate

        b0, _ = _window_sources(8)
        small = Predicate(("v",), lambda vals: vals[0] <= 1, "v <= 1")

        def make_plan():
            table = Relation("r", Schema(["w"]))
            return b0.where(small).join_relation(table, "v", "w").build()

        events = [Arrival(1.0, "s0", (1,)),
                  RelationUpdate(2.0, "r", "insert", (1,)),
                  Arrival(3.0, "s0", (1,)), Arrival(4.0, "s0", (0,))]
        query = ContinuousQuery(make_plan(), ExecutionConfig(mode=Mode.UPA))
        assert query.executor.batch_loop() == \
            "one loop; column prelude: s0 (1 plan(s))"
        per_tuple = _relation_replay(make_plan, events, None)
        assert _relation_replay(make_plan, events, 64) == per_tuple
        assert sum(per_tuple[1].values()) == 2


@st.composite
def relation_traces(draw, max_events=60, vmax=3):
    """:func:`traces` over ``s0`` and ``s1`` with relation inserts and
    deletes of ``r`` at random positions (a delete only removes a row an
    earlier insert added)."""
    from repro import RelationUpdate

    events = []
    rows: list = []
    for event in draw(traces(max_events=max_events, vmax=vmax)):
        action = draw(st.sampled_from(["none", "none", "insert", "delete"]))
        if action == "insert":
            row = (draw(st.integers(0, vmax - 1)),)
            rows.append(row)
            events.append(RelationUpdate(event.ts, "r", "insert", row))
        elif action == "delete" and rows:
            row = rows.pop(draw(st.integers(0, len(rows) - 1)))
            events.append(RelationUpdate(event.ts, "r", "delete", row))
        events.append(event)
    return events


class TestRelationInterleaved:
    """A relation update inside a batch stays in the one loop, at its row,
    between prelude survivors whose window, prefix and boundary work was
    hoisted ahead of it: batches equal per-tuple runs in answers, output
    stream and every counter but touches and probes."""

    @staticmethod
    def _plan(kind):
        from repro import NRR, Relation

        b0, b1 = _window_sources(8)
        small = Predicate(("v",), lambda vals: vals[0] <= 1, "v <= 1")
        if kind == "r-join":
            return (b0.where(small)
                    .join_relation(Relation("r", Schema(["w"])), "v", "w")
                    .build())
        if kind == "nrr-join":
            return (b0.where(small)
                    .join_nrr(NRR("r", Schema(["w"])), "v", "w").build())
        if kind == "r-join-distinct":
            # Update deltas enter an eager operator: its boundary must be
            # re-anchored after each update.
            return (b0.where(small)
                    .join_relation(Relation("r", Schema(["w"])), "v", "w")
                    .distinct().build())
        # Filter prefixes on both streams under a join with the relation.
        return (b0.where(small).join(b1.where(small), on="v")
                .join_relation(Relation("r", Schema(["w"])), "l_v", "w")
                .build())

    @SETTINGS
    @given(events=relation_traces(), batch=st.sampled_from([2, 7, 64]))
    @pytest.mark.parametrize("kind", ["r-join", "nrr-join", "r-join-distinct",
                                      "two-prefixes"])
    def test_relation_updates_between_prelude_rows(self, kind, events,
                                                   batch):
        query = ContinuousQuery(self._plan(kind),
                                ExecutionConfig(mode=Mode.UPA))
        assert "column prelude: s0 (1 plan(s))" in query.executor.batch_loop()
        base = _relation_replay(lambda: self._plan(kind), events, None)
        assert _relation_replay(lambda: self._plan(kind), events, batch) \
            == base

    @SETTINGS
    @given(events=traces(vmax=3), batch=st.sampled_from([2, 7, 64]))
    def test_shared_member_with_a_prelude_and_a_port(self, events, batch):
        """A fused group member whose private leaf has a prefix runs a
        prelude on that stream and its port inline on the other."""
        from repro import QueryGroup

        small = Predicate(("v",), lambda vals: vals[0] <= 1, "v <= 1")

        def run(shared, batch):
            b0, b1 = _window_sources(8)
            group = QueryGroup(shared=shared)
            group.add("a", b0.where(small).join(b1.distinct(), on="v")
                      .build(), ExecutionConfig(mode=Mode.UPA))
            group.add("b", b1.distinct().build(),
                      ExecutionConfig(mode=Mode.UPA))
            streams = {name: [] for name in group.names()}
            for name in group.names():
                group[name].subscribe(
                    lambda t, now, out=streams[name]: out.append((t, now)))
            group.run(iter(events), batch=batch)
            return group, (streams, group.answers(),
                           {name: _counters(group[name])
                            for name in group.names()})

        group, shared = run(True, batch)
        assert group.shared_producers()
        assert group["a"].executor.batch_loop() == (
            "one loop; column prelude: s0 (1 plan(s)); "
            "row arrivals: s1 (shared port)")
        assert shared == run(True, None)[1]
        assert shared[:2] == run(False, None)[1][:2]


class TestMetricDenominators:
    """``time_per_1000`` and ``touches_per_tuple`` divide by stream
    arrivals, not by all events (the old per-event denominator made
    tick-heavy traces look artificially fast)."""

    def _tick_heavy_run(self):
        b0, _ = _window_sources(8)
        plan = b0.distinct().build()
        events = []
        ts = 0.0
        for i in range(10):
            ts += 1.0
            events.append(Arrival(ts, "s0", (i % 3,)))
            for _ in range(9):  # 9 ticks per arrival
                ts += 0.1
                events.append(Tick(ts))
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        return query.run(iter(events))

    def test_time_per_1000_divides_by_arrivals(self):
        result = self._tick_heavy_run()
        assert result.events_processed == 100
        assert result.tuples_arrived == 10
        # Per 1000 *tuples*, not per 1000 events (10x difference here).
        expected = 1000.0 * result.elapsed / 10
        assert result.time_per_1000() == pytest.approx(expected)

    def test_touches_divide_by_arrivals(self):
        result = self._tick_heavy_run()
        assert result.touches_per_tuple() == pytest.approx(
            result.counters.touches / 10)

    def test_zero_arrival_trace_reports_zero(self):
        b0, _ = _window_sources(8)
        plan = b0.distinct().build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        result = query.run(iter([Tick(1.0), Tick(2.0)]))
        assert result.tuples_arrived == 0
        assert result.time_per_1000() == 0.0
        assert result.touches_per_tuple() == 0.0
