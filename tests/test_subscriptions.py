"""Tests for output-stream subscriptions (Definition 2's delta stream)."""

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    from_window,
)

V = Schema(["v"])


def stream(name, window=10):
    return StreamDef(name, V, TimeWindow(window))


class TestSubscriptions:
    def test_insertions_delivered(self):
        query = ContinuousQuery(from_window(stream("s")).build())
        deltas = []
        query.subscribe(lambda t, now: deltas.append((t.sign, t.values)))
        query.run([Arrival(1, "s", (1,)), Arrival(2, "s", (2,))])
        assert deltas == [(1, (1,)), (1, (2,))]

    def test_negation_emits_negative_deltas(self):
        plan = (from_window(stream("a"))
                .minus(from_window(stream("b")), on="v").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        deltas = []
        query.subscribe(lambda t, now: deltas.append((t.sign, t.values, now)))
        query.executor.process_event(Arrival(1, "a", (7,)))
        query.executor.process_event(Arrival(2, "b", (7,)))  # premature
        assert deltas == [(1, (7,), 1), (-1, (7,), 2)]

    def test_predictable_expirations_not_signalled(self):
        """WKS/WK output: the subscriber gets each tuple's exp and manages
        expiry itself — that is the point of the classification."""
        query = ContinuousQuery(from_window(stream("s", window=5)).build(),
                                ExecutionConfig(mode=Mode.UPA))
        deltas = []
        query.subscribe(lambda t, now: deltas.append(t))
        query.run([Arrival(1, "s", (1,)), Tick(20)])
        assert len(deltas) == 1
        assert deltas[0].exp == 6  # consumer knows when it lapses

    def test_multiple_subscribers(self):
        query = ContinuousQuery(from_window(stream("s")).build())
        a, b = [], []
        query.subscribe(lambda t, now: a.append(t))
        query.subscribe(lambda t, now: b.append(t))
        query.run([Arrival(1, "s", (1,))])
        assert len(a) == len(b) == 1

    def test_nt_mode_delta_stream_covers_all_expirations(self):
        """Under NT, every expiration reaches the view as a negative — the
        subscriber sees the full churn the strategy pays for."""
        query = ContinuousQuery(from_window(stream("s", window=5)).build(),
                                ExecutionConfig(mode=Mode.NT))
        signs = []
        query.subscribe(lambda t, now: signs.append(t.sign))
        query.run([Arrival(1, "s", (1,)), Tick(20)])
        assert signs == [1, -1]

    @pytest.mark.parametrize("batch", [None, 4])
    def test_nt_negatives_leave_in_arrival_order(self, batch):
        """A WKS window expires in generation order (Section 3.1), so NT's
        window negatives reach a subscriber in the order their positives
        arrived, even when one purge expires many at once."""
        query = ContinuousQuery(from_window(stream("s", window=5)).build(),
                                ExecutionConfig(mode=Mode.NT))
        deltas = []
        query.subscribe(lambda t, now: deltas.append((t.sign, t.values)))
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        events = [Arrival(1 + i // 3, "s", (v,)) for i, v in
                  enumerate(values)]
        query.run(events + [Tick(20)], batch=batch)
        positives = [v for sign, v in deltas if sign > 0]
        negatives = [v for sign, v in deltas if sign < 0]
        assert positives == negatives == [(v,) for v in values]
