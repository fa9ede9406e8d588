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
    @pytest.mark.parametrize("mode,storage", [
        (Mode.NT, "auto"),
        (Mode.UPA, "partitioned"),
        (Mode.UPA, "negative"),
    ])
    def test_strict(self, plan, events, batch, mode, storage):
        base = _replay(plan, events, None, mode, str_storage=storage)
        got = _replay(plan, events, batch, mode, str_storage=storage)
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
    """Plans on each side of the driver's batch-loop selection rule, with
    the ``-- columnar:`` explain footer each must report."""
    b0, b1 = _window_sources(8)
    small = Predicate(("v",), lambda vals: vals[0] <= 1, "v <= 1")
    counted = from_window(StreamDef("s0", V, CountWindow(3)))
    return {
        "filter-prefix-join": (b0.where(small).join(b1, on="v").build(),
                               "on (2 column plan(s) across 2 stream(s)"),
        "bare-minus": (b0.minus(b1, on="v").build(),
                       "row loop: no stateless prefix"),
        "bare-group-by": (b0.group_by(["v"], [count()]).build(),
                          "row loop: no stateless prefix"),
        "count-window": (counted.where(small).distinct().build(),
                         "row loop: count window"),
    }


LOOP_CASES = _loop_cases()


class TestLoopSelection:
    """The driver picks the micro-batch loop from the program; whichever
    it picks must stay identical to per-tuple execution."""

    @SETTINGS
    @given(events=traces(vmax=3), batch=st.sampled_from([2, 7, 64]))
    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_chosen_loop_equals_per_tuple(self, case, events, batch):
        plan, footer = LOOP_CASES[case]
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        assert f"-- columnar: {footer}" in query.explain()
        assert _replay(plan, events, batch, Mode.UPA) \
            == _replay(plan, events, None, Mode.UPA)


class TestFallbacksAreCounted:
    """A batch that cannot take the loop the column vocabulary offers is
    counted by reason — in ``Driver.batch_fallbacks`` always, in the
    ``-- columnar:`` footer after the run, in ``batch_fallback_total``
    of the run's metrics — instead of silently taking the row loop."""

    def _query(self, case, **cfg):
        return ContinuousQuery(LOOP_CASES[case][0],
                               ExecutionConfig(mode=Mode.UPA, **cfg))

    def test_non_monotone_batch(self):
        query = self._query("filter-prefix-join")
        driver = query.executor
        driver.process_batch([Arrival(1.0, "s0", (1,)),
                              Arrival(2.0, "s1", (1,))])
        assert driver.batch_fallbacks == {}
        with pytest.raises(ExecutionError, match="out-of-order"):
            driver.process_batch([Arrival(4.0, "s0", (1,)),
                                  Arrival(3.0, "s1", (1,))])
        assert driver.batch_fallbacks == {"non_monotone_ts": 1}
        assert query.explain().count("; fallbacks: non_monotone_ts=1") == 1

    def test_count_window_batches(self):
        query = self._query("count-window")
        events = [Arrival(float(i), "s0", (i % 2,)) for i in range(10)]
        result = query.run(events, batch=4)
        assert query.executor.batch_fallbacks == {"count_window": 3}
        assert "row loop: count window; fallbacks: count_window=3" \
            in query.explain()
        assert result.metrics.value("batch_fallback_total",
                                    reason="count_window") == 3
        query.executor.flush_metrics()  # idempotent
        assert result.metrics.value("batch_fallback_total",
                                    reason="count_window") == 3

    def test_relation_update_batch(self):
        from repro import Relation, RelationUpdate

        b0, _ = _window_sources(8)
        small = Predicate(("v",), lambda vals: vals[0] <= 1, "v <= 1")
        table = Relation("r", Schema(["w"]))
        plan = b0.where(small).join_relation(table, "v", "w").build()
        driver = ContinuousQuery(
            plan, ExecutionConfig(mode=Mode.UPA)).executor
        assert driver.batch_loop().startswith("on (1 column plan(s)")
        driver.process_batch([Arrival(1.0, "s0", (1,)),
                              RelationUpdate(2.0, "r", "insert", (1,))])
        assert driver.batch_fallbacks == {"relation_update": 1}

    def test_a_chosen_row_loop_is_not_a_fallback(self):
        query = self._query("bare-minus")
        query.run([Arrival(float(i), f"s{i % 2}", (i % 3,))
                   for i in range(20)], batch=4)
        assert query.executor.batch_fallbacks == {}


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
