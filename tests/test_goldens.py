"""Golden regression tests: exact deterministic outcomes on a fixed trace.

These pin down behaviour that ordinary assertions leave loose: exact answer
multisets, exact negative-tuple counts, and state sizes for a small fixed
workload under every strategy.  If a refactor changes any of these, the
change is either a bug or a deliberate cost-model shift that must be
reviewed (and the golden updated consciously).
Touch *totals* are intentionally not pinned — they are an accounting policy,
compared only relatively (orderings) in benchmarks/test_shapes.py.
"""

import sys

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

#: Fixed interleaved trace over two streams, window 10.
TRACE = [
    Arrival(1, "a", (1,)),
    Arrival(2, "b", (1,)),
    Arrival(3, "a", (2,)),
    Arrival(4, "a", (1,)),
    Arrival(5, "b", (2,)),
    Arrival(7, "b", (1,)),
    Arrival(9, "a", (3,)),
    Arrival(12, "b", (3,)),   # a's ts=1 tuple has expired by now
    Arrival(14, "a", (1,)),
    Tick(16),
]


def stream(name):
    return StreamDef(name, V, TimeWindow(10))


def run(plan_builder, mode, **cfg):
    plan = plan_builder()
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode, **cfg))
    result = query.run(list(TRACE))
    return query, result


class TestJoinGoldens:
    def plan(self):
        return from_window(stream("a")).join(from_window(stream("b")),
                                             on="v").build()

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_final_answer(self, mode):
        query, _ = run(self.plan, mode)
        assert dict(query.answer()) == {
            (1, 1): 1,   # a@14 with b@7
            (3, 3): 1,   # a@9 with b@12
        }

    def test_nt_negative_count_exact(self):
        """Every expired window tuple produces exactly one negative, and
        each negative may cascade: the totals are fully determined."""
        query, result = run(self.plan, Mode.NT)
        # Tuples with ts ≤ 6 expired by the final tick (a:1,3,4  b:2,5):
        # five window negatives, each processed once by the join.
        assert result.counters.negatives_processed == 5

    def test_state_sizes_after_run(self):
        # NT retains the four live window tuples (a@9, a@14, b@7, b@12);
        # direct-style windows store nothing.
        for mode, expected_window_state in [(Mode.NT, 4), (Mode.UPA, 0)]:
            query, _ = run(self.plan, mode)
            leaves = [op for op in query.compiled.ops.values()
                      if type(op).__name__ == "WindowOp"]
            window_state = sum(op.state_size() for op in leaves)
            assert window_state == expected_window_state, mode


class TestDistinctGoldens:
    def plan(self):
        return from_window(stream("a")).distinct().build()

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_final_answer(self, mode):
        query, _ = run(self.plan, mode)
        assert dict(query.answer()) == {(3,): 1, (1,): 1}

    def test_delta_state_exact(self):
        query, _ = run(self.plan, Mode.UPA)
        op = query.compiled.op_for(query.plan)
        # Representatives: values 3 and 1; no pending auxiliaries.
        assert op.state_size() == 2


class TestCrossRegimeMatrix:
    """One fixed workload, every execution regime, one pinned outcome.

    The unified driver runs the same compiled execution program in every
    regime, so the answer multiset, the exact ordered output stream, and
    the structural counters must be byte-identical across per-tuple,
    micro-batch execution and every sample period (a sample
    and a timed batch after every event, or none) — and the shared-group
    and sharded-serial regimes must reproduce the same answer and stream
    (sharded counters are compared structurally: per-shard sums equal the
    unsharded totals).
    """

    #: The exact UPA output stream: (values, ts, exp, sign, now) per tuple.
    GOLDEN_STREAM = (
        ((1, 1), 2, 11, 1, 2),
        ((1, 1), 4, 12, 1, 4),
        ((2, 2), 5, 13, 1, 5),
        ((1, 1), 7, 11, 1, 7),
        ((1, 1), 7, 14, 1, 7),
        ((3, 3), 12, 19, 1, 12),
        ((1, 1), 14, 17, 1, 14),
    )
    GOLDEN_ANSWER = {(1, 1): 1, (3, 3): 1}
    #: Deterministic structural counters of the UPA run.  The root is a
    #: bag ⋈ bag window join, so the view is the join's own state
    #: (``JoinStateView``): ``inserts`` and ``expirations`` count the two
    #: join inputs only, the seven results are stored nowhere.
    GOLDEN_COUNTERS = {
        "inserts": 9,
        "deletes": 0,
        "expirations": 5,
        "probes": 9,
        "tuples_processed": 18,
        "negatives_processed": 0,
        "results_produced": 7,
    }
    STRUCTURAL = tuple(GOLDEN_COUNTERS)

    def plan(self):
        return from_window(stream("a")).join(from_window(stream("b")),
                                             on="v").build()

    def _run(self, batch=None, shards=None, sample_events=None, **cfg):
        query = ContinuousQuery(self.plan(),
                                ExecutionConfig(mode=Mode.UPA, **cfg))
        if sample_events is not None:
            query.executor.sample_events = sample_events
        outputs = []
        query.subscribe(
            lambda t, now: outputs.append((t.values, t.ts, t.exp, t.sign,
                                           now)))
        kwargs = {}
        if shards is not None:
            kwargs = {"shards": shards, "shard_backend": "serial"}
        result = query.run(list(TRACE), batch=batch, **kwargs)
        return query, result, tuple(outputs)

    @pytest.mark.parametrize("regime,kwargs", [
        ("per-tuple", {}),
        ("batched", {"batch": 4}),
        ("telemetry", {"sample_events": 1}),
        ("telemetry-batched", {"batch": 4, "sample_events": 1}),
        ("unsampled", {"sample_events": sys.maxsize}),
        ("unsampled-batched", {"batch": 4, "sample_events": sys.maxsize}),
    ])
    def test_unsharded_regimes_pin_everything(self, regime, kwargs):
        query, result, outputs = self._run(**kwargs)
        assert dict(query.answer()) == self.GOLDEN_ANSWER, regime
        assert outputs == self.GOLDEN_STREAM, regime
        snapshot = result.counters.snapshot()
        assert {key: snapshot[key] for key in self.STRUCTURAL} \
            == self.GOLDEN_COUNTERS, regime

    @pytest.mark.parametrize("batch", [None, 4])
    def test_sharded_serial_pins_answer_and_stream(self, batch):
        _query, result, outputs = self._run(batch=batch, shards=2)
        assert result.fallback_reason is None
        assert dict(result.answer()) == self.GOLDEN_ANSWER
        assert outputs == self.GOLDEN_STREAM
        snapshot = result.counters.snapshot()
        assert {key: snapshot[key] for key in self.STRUCTURAL} \
            == self.GOLDEN_COUNTERS

    @pytest.mark.parametrize("batch", [None, 4])
    def test_shared_group_pins_answer_and_stream(self, batch):
        from repro import QueryGroup

        group = QueryGroup()
        config = ExecutionConfig(mode=Mode.UPA)
        group.add("q1", self.plan(), config)
        group.add("q2", self.plan(), config)
        streams = {"q1": [], "q2": []}
        for name in ("q1", "q2"):
            group[name].subscribe(
                lambda t, now, acc=streams[name]:
                acc.append((t.values, t.ts, t.exp, t.sign, now)))
        group.run(list(TRACE), batch=batch)
        for name in ("q1", "q2"):
            assert dict(group[name].answer()) == self.GOLDEN_ANSWER
            assert tuple(streams[name]) == self.GOLDEN_STREAM


class TestNegationGoldens:
    def plan(self):
        return from_window(stream("a")).minus(from_window(stream("b")),
                                              on="v").build()

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA],
                             ids=["nt-auto", "upa-partitioned"])
    def test_final_answer(self, mode):
        query, _ = run(self.plan, mode)
        # At ts=16 live: a = {1@14, 3@9}, b = {1@7, 3@12}
        # v=1: 1−1=0; v=3: 1−1=0  → empty answer.
        assert dict(query.answer()) == {}

    def test_results_produced_exact(self):
        _query, result = run(self.plan, Mode.UPA)
        # Positive emissions over the whole run (admissions), pinned:
        assert result.counters.results_produced == 4
