"""IntersectOp.process_batch: the fused loop is observationally identical.

``IntersectOp`` overrides ``process_batch`` with a fused loop (hoisted
clock advance, buffer-pair resolution, bound methods) instead of
inheriting ``JoinOp``'s, because intersection builds results differently —
they carry the left constituent's values and expire when *either*
constituent does.  These tests pin the contract the override must keep:
batched execution produces byte-identical output streams (insertions and
negative tuples, in order), the same answer multiset and identical counter
snapshots as per-tuple execution, for every strategy that can run the
plan.

The ``(s0 − s1) ∩ s2`` shape matters most: under NT/UPA the negation
subplan emits negative tuples *into* the intersection mid-batch, which is
the path the fused loop's negative branch (delete + probe_all + min-exp
negation) must get right.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st
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
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _comparable(counters):
    """Counter snapshot minus ``touches``.

    Micro-batching legitimately *reduces* touches (expiration passes are
    amortized across the batch, so the per-pass head peeks happen less
    often); that is PR-1 behaviour, not the fused loop's.  Every other
    counter — including probes, which the fused loop charges through the
    same buffer calls as the scalar path — must match exactly.
    """
    snap = counters.snapshot()
    snap.pop("touches")
    return snap


@st.composite
def traces(draw, max_events=60, n_streams=3, vmax=3):
    """Three-stream traces with mid-stream Ticks so expiration boundaries
    land inside batches; a small value domain forces frequent matches."""
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


def _sources(window):
    return tuple(from_window(StreamDef(f"s{i}", V, TimeWindow(window)))
                 for i in range(3))


@st.composite
def intersect_plans(draw):
    """Plan shapes whose root or interior is an intersection."""
    window = draw(st.sampled_from([4, 8, 16]))
    b0, b1, b2 = _sources(window)
    shape = draw(st.sampled_from(
        ["plain", "chained", "distinct_inputs", "negation_feed"]))
    if shape == "plain":
        return b0.intersect(b1).build(), False
    if shape == "chained":
        return b0.intersect(b1).intersect(b2).build(), False
    if shape == "distinct_inputs":
        return b0.distinct().intersect(b1.distinct()).build(), False
    # (s0 − s1) ∩ s2: the negation emits negative tuples into the
    # intersection, exercising the fused loop's delete/probe_all branch.
    return b0.minus(b1, on="v").intersect(b2).build(), True


def _replay(plan, events, mode, batch):
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
    outputs = []
    query.subscribe(
        lambda t, now: outputs.append((t.values, t.ts, t.exp, t.sign, now)))
    result = query.run(iter(events), batch=batch)
    return result, outputs


class TestBatchEquivalence:
    @SETTINGS
    @given(shaped=intersect_plans(), events=traces(),
           batch=st.sampled_from([1, 2, 4, 16, 64]))
    def test_nt_and_upa(self, shaped, events, batch):
        plan, _has_negation = shaped
        for mode in (Mode.NT, Mode.UPA):
            base, base_out = _replay(plan, events, mode, None)
            res, out = _replay(plan, events, mode, batch)
            assert out == base_out, (mode, batch)
            assert res.answer() == base.answer()
            assert _comparable(res.counters) == _comparable(base.counters), mode

    @SETTINGS
    @given(shaped=intersect_plans(), events=traces(),
           batch=st.sampled_from([1, 4, 64]))
    def test_direct(self, shaped, events, batch):
        plan, has_negation = shaped
        if has_negation:
            return  # DIRECT cannot execute negation plans
        base, base_out = _replay(plan, events, Mode.DIRECT, None)
        res, out = _replay(plan, events, Mode.DIRECT, batch)
        assert out == base_out
        assert res.answer() == base.answer()
        assert _comparable(res.counters) == _comparable(base.counters)


def test_negative_feed_counters_pinned():
    """Deterministic regression: negatives flowing into the intersection
    charge negatives_processed identically batched and per-tuple."""
    b0, b1, b2 = _sources(6)
    plan = b0.minus(b1, on="v").intersect(b2).build()
    events = []
    ts = 0.0
    for i in range(120):
        ts += 0.5
        events.append(Arrival(ts, f"s{i % 3}", (i % 2,)))
    events.append(Tick(ts + 30.0))
    for mode in (Mode.NT, Mode.UPA):
        base, _ = _replay(plan, events, mode, None)
        res, _ = _replay(plan, events, mode, 16)
        snap, base_snap = _comparable(res.counters), _comparable(base.counters)
        assert snap == base_snap, mode
        assert base_snap["negatives_processed"] > 0, (
            "trace failed to exercise the negative-tuple path")


def test_expired_negative_into_purged_view_pinned():
    """Deterministic regression (found by ``test_nt_and_upa``): a negative
    whose ``exp <= now`` reaches a timestamp-purged result view.

    Per-tuple execution has already purged the victim by timestamp (the
    view purge runs before dispatch); a batch purges the view once at its
    end and used to still find it, so the victim was counted under
    ``deletes`` instead of ``expirations``.  The view now leaves such a
    result to the timestamp purge under every schedule.
    """
    b0, b1, b2 = _sources(8)
    plan = b0.minus(b1, on="v").intersect(b2).build()

    def s0(*stamps):
        return [Arrival(ts, "s0", (0,)) for ts in stamps]

    events = [
        Tick(0.25), *s0(0.5, 0.75, 1, 1.25, 1.5, 1.75, 2), Tick(2.25),
        *s0(2.5), Tick(2.75), *s0(3, 3.25), Tick(3.5), *s0(3.75, 4),
        Arrival(6, "s2", (0,)), *s0(12, 12.25), Arrival(14.25, "s1", (0,)),
        *s0(*(14.5 + 0.25 * i for i in range(10))), Tick(66.75),
    ]
    base, base_out = _replay(plan, events, Mode.UPA, None)
    assert base.counters.snapshot()["negatives_processed"] > 0
    for batch in (1, 2, 4, 16, 64):
        res, out = _replay(plan, events, Mode.UPA, batch)
        assert out == base_out, batch
        assert res.answer() == base.answer()
        assert _comparable(res.counters) == _comparable(base.counters), batch
