"""Key-sharded parallel execution: analysis, exactness, and fallbacks.

Four layers of guarantees are pinned here:

1. **Partitionability analysis** (``repro.core.sharding``): the paper's
   Queries 1–5 all shard by ``src_ip``; count windows, relation joins,
   shared scans, keyless aggregation, conflicting key demands and non-key
   requirements above a join are rejected with a reason.
2. **Exactness**: for every shardable plan, sharded execution — both the
   serial reference backend and the forked process backend, at any shard
   count, per-tuple or micro-batched — produces the same answer multiset,
   the same per-instant output multiset (insertions *and* negative tuples),
   and structurally identical counters (unsharded totals equal the sum of
   the per-shard counters for inserts / deletes / expirations / probes /
   tuples_processed / negatives_processed / results_produced).  The merged
   output order itself is deterministic: identical across backends and
   chunk sizes.
3. **Fallbacks**: ``shards=1``, unshardable plans, and shared groups run
   unsharded with the reason recorded on the result and in ``explain()``.
4. **Replicas**: a single query and an independent group run the same
   sharded runtime; an n-member replica run equals n one-member runs, and
   member subscribers receive their merged streams.

``touches`` is deliberately *not* asserted equal in general: each shard
replica pays the per-pass scheduling charges (e.g. the FIFO head peek) on
every clock advance, so sharded totals exceed unsharded ones by bounded
per-replica overhead; under DIRECT per-tuple execution (pure scans) the
decomposition is exact and asserted.  See DESIGN.md "Sharded parallel
execution".
"""

from __future__ import annotations

import sys
from collections import Counter as Multiset

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Arrival,
    ConfigError,
    ContinuousQuery,
    ExecutionConfig,
    ExecutionError,
    Mode,
    Predicate,
    QueryGroup,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    analyze_group_partitionability,
    analyze_partitionability,
    compile_plan,
    count,
    from_window,
    stable_hash,
)
from repro.core.plan import DupElim, Join, Negation, Project, WindowScan
from repro.engine.driver import Driver
from repro.engine.program import build_program
from repro.streams.window import CountWindow
from repro.workloads.queries import (
    query1,
    query2,
    query3,
    query4,
    query5_pullup,
)
from repro.workloads.traffic import TrafficConfig, TrafficTraceGenerator

from conftest import V_SCHEMA, random_arrivals, stream_pair

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Counters whose sharded sum must equal the unsharded total exactly.
STRUCTURAL = ("inserts", "deletes", "expirations", "probes",
              "tuples_processed", "negatives_processed", "results_produced")


def canonical(outputs):
    """Per-instant multiset view of an output stream: the representation in
    which sharded and unsharded streams are provably identical."""
    per: dict = {}
    for t, now in outputs:
        per.setdefault(now, Multiset())[(t.values, t.ts, t.exp, t.sign)] += 1
    return per


def stream_key(outputs):
    """Exact (order-sensitive) fingerprint of an output stream."""
    return tuple((t.values, t.ts, t.exp, t.sign, now) for t, now in outputs)


def run_unsharded(plan, events, mode, batch=None):
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
    outputs = []
    query.subscribe(lambda t, now: outputs.append((t, now)))
    result = query.run(iter(events), batch=batch)
    return result, outputs


def run_sharded(plan, events, mode, shards, backend, batch=None):
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
    outputs = []
    query.subscribe(lambda t, now: outputs.append((t, now)))
    result = query.run(iter(events), batch=batch, shards=shards,
                       shard_backend=backend)
    return result, outputs


# ---------------------------------------------------------------------------
# partitionability analysis
# ---------------------------------------------------------------------------


class TestAnalysis:
    def setup_method(self):
        self.gen = TrafficTraceGenerator(TrafficConfig(n_links=3))

    @pytest.mark.parametrize("factory,n_streams", [
        (query1, 2), (query2, 1), (query3, 2), (query4, 2),
        (query5_pullup, 3),
    ])
    def test_paper_queries_shard_on_src_ip(self, factory, n_streams):
        verdict = analyze_partitionability(factory(self.gen, 10.0))
        assert verdict.shardable
        assert len(verdict.keys) == n_streams
        assert all(key.attr == "src_ip" for key in verdict.keys.values())

    def test_free_stream_routes_by_full_tuple(self):
        s0, _ = stream_pair()
        verdict = analyze_partitionability(from_window(s0).build())
        assert verdict.shardable
        assert verdict.keys["s0"].attr is None
        assert "hash(*)" in verdict.describe()

    def test_keyed_groupby_shards_on_group_key(self):
        s0, _ = stream_pair()
        plan = from_window(s0).group_by(["v"], [count()]).build()
        verdict = analyze_partitionability(plan)
        assert verdict.shardable and verdict.keys["s0"].attr == "v"

    def test_keyless_groupby_unshardable(self):
        s0, _ = stream_pair()
        plan = from_window(s0).group_by([], [count()]).build()
        verdict = analyze_partitionability(plan)
        assert not verdict.shardable
        assert "global group" in verdict.reason

    def test_count_window_unshardable(self):
        stream = StreamDef("s0", V_SCHEMA, CountWindow(10))
        verdict = analyze_partitionability(from_window(stream).build())
        assert not verdict.shardable
        assert "count-based window" in verdict.reason

    def test_relation_join_unshardable(self):
        from repro import NRR

        s0, _ = stream_pair()
        nrr = NRR("rates", Schema(["v", "rate"]))
        plan = from_window(s0).join_nrr(nrr, on="v", rel_on="v").build()
        verdict = analyze_partitionability(plan)
        assert not verdict.shardable
        assert "relation" in verdict.reason

    def test_conflicting_key_demands_unshardable(self):
        schema = Schema(["a", "b"])
        stream = StreamDef("pairs", schema, TimeWindow(8))
        # Self-join keyed on 'a' for one occurrence and 'b' for the other:
        # one routing key cannot co-locate both demands.
        plan = Join(WindowScan(stream), WindowScan(stream), "a", "b")
        verdict = analyze_partitionability(plan)
        assert not verdict.shardable
        assert "keyed on both" in verdict.reason

    def test_non_key_requirement_above_join_unshardable(self):
        schema_a = Schema(["a", "b"])
        schema_b = Schema(["a", "c"])
        left = WindowScan(StreamDef("l", schema_a, TimeWindow(8)))
        right = WindowScan(StreamDef("r", schema_b, TimeWindow(8)))
        join = Join(left, right, "a", "a")
        # DISTINCT over the join's non-key column demands co-location the
        # join inputs cannot provide.
        plan = DupElim(Project(join, ["b"]))
        verdict = analyze_partitionability(plan)
        assert not verdict.shardable

    def test_negation_propagates_both_sides(self):
        s0, s1 = stream_pair()
        plan = Negation(WindowScan(s0), WindowScan(s1), "v")
        verdict = analyze_partitionability(plan)
        assert verdict.shardable
        assert verdict.keys["s0"].attr == "v"
        assert verdict.keys["s1"].attr == "v"

    def test_stable_hash_is_process_independent(self):
        # CRC32 of repr: fixed values must map to fixed hashes forever.
        assert stable_hash("10.0.0.1") == stable_hash("10.0.0.1")
        assert stable_hash(("10.0.0.1", "ftp")) != stable_hash("10.0.0.1")
        import subprocess
        import sys
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.engine.shard import stable_hash;"
             "print(stable_hash('10.0.0.1'))"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
        )
        assert int(out.stdout) == stable_hash("10.0.0.1")


# ---------------------------------------------------------------------------
# paper-query matrix: sharded (both backends) vs unsharded
# ---------------------------------------------------------------------------

#: (experiment, plan factory, modes) — DIRECT cannot run negation plans.
E_QUERIES = [
    ("e1", query1, (Mode.NT, Mode.DIRECT, Mode.UPA)),
    ("e3", query2, (Mode.NT, Mode.DIRECT, Mode.UPA)),
    ("e4", query3, (Mode.NT, Mode.UPA)),
    ("e5", query4, (Mode.NT, Mode.DIRECT, Mode.UPA)),
    ("e6", query5_pullup, (Mode.NT, Mode.UPA)),
]

_GEN = TrafficTraceGenerator(TrafficConfig(n_links=3, n_src_ips=40, seed=7))
_EVENTS = list(_GEN.events(600))
_WINDOW = 20.0


@pytest.mark.parametrize("name,factory,modes", E_QUERIES,
                         ids=[row[0] for row in E_QUERIES])
def test_serial_matrix_matches_unsharded(name, factory, modes):
    for mode in modes:
        for batch in (None, 64):
            base, base_out = run_unsharded(
                factory(_GEN, _WINDOW), _EVENTS, mode, batch)
            for shards in (1, 2, 4):
                res, out = run_sharded(factory(_GEN, _WINDOW), _EVENTS,
                                       mode, shards, "serial", batch)
                label = (name, mode, batch, shards)
                assert res.answer() == base.answer(), label
                assert canonical(out) == canonical(base_out), label
                assert res.events_processed == base.events_processed
                assert res.tuples_arrived == base.tuples_arrived
                if shards == 1:
                    assert res.fallback_reason is None
                    assert res.backend == "inline"
                else:
                    snap = res.counters.snapshot()
                    base_snap = base.counters.snapshot()
                    for field in STRUCTURAL:
                        assert snap[field] == base_snap[field], (label, field)


@pytest.mark.parametrize("name,factory,modes", E_QUERIES,
                         ids=[row[0] for row in E_QUERIES])
def test_process_backend_matches_serial(name, factory, modes):
    """The forked worker pool is answer- and stream-identical to the serial
    reference backend (and hence to unsharded execution)."""
    for mode in modes[:1] + modes[-1:]:  # NT and UPA bound the behaviours
        for batch, shards in ((None, 2), (64, 4)):
            serial_res, serial_out = run_sharded(
                factory(_GEN, _WINDOW), _EVENTS, mode, shards, "serial",
                batch)
            proc_res, proc_out = run_sharded(
                factory(_GEN, _WINDOW), _EVENTS, mode, shards, "process",
                batch)
            label = (name, mode, batch, shards)
            assert proc_res.answer() == serial_res.answer(), label
            # Merged order — not just the multiset — is backend-invariant.
            assert stream_key(proc_out) == stream_key(serial_out), label
            assert proc_res.counters.snapshot() == \
                serial_res.counters.snapshot(), label
            assert proc_res.shard_counters == serial_res.shard_counters


def test_merged_stream_is_chunk_size_invariant():
    plan = query3(_GEN, _WINDOW)
    reference = None
    for batch in (None, 7, 64):
        _res, out = run_sharded(query3(_GEN, _WINDOW), _EVENTS, Mode.NT,
                                3, "serial", batch)
        key = stream_key(out)
        if reference is None:
            reference = key
        else:
            assert key == reference, f"batch={batch} changed merged order"
    assert analyze_partitionability(plan).shardable


@SETTINGS
@given(shards=st.sampled_from([2, 3, 4]),
       batch=st.sampled_from([3, 7, 16, 64, 256]))
def test_columnar_chunk_shard_invariance(shards, batch):
    """Satellite: chunk size × shard count never moves the column loop's
    merged stream — it is byte-identical to the unsharded per-tuple
    reference, and so are answers and structural counters."""
    base, base_out = run_unsharded(query1(_GEN, _WINDOW), _EVENTS[:300],
                                   Mode.UPA)
    res, out = run_sharded(query1(_GEN, _WINDOW), _EVENTS[:300], Mode.UPA,
                           shards, "serial", batch)
    label = (shards, batch)
    assert res.answer() == base.answer(), label
    assert stream_key(out) == stream_key(base_out), label
    snap, base_snap = res.counters.snapshot(), base.counters.snapshot()
    for field in STRUCTURAL:
        assert snap[field] == base_snap[field], (label, field)


def test_chunked_slices_lists_without_copying_semantics():
    """Satellite: `_chunked` takes the direct-slice path for list input;
    chunk boundaries are identical to the iterator path for every size."""
    from repro.engine.shard import _chunked

    events = list(range(23))
    for size in (1, 4, 7, 23, 64):
        from_list = list(_chunked(events, size))
        from_iter = list(_chunked(iter(events), size))
        assert from_list == from_iter, size
        assert [len(c) for c in from_list[:-1]] == \
            [size] * (len(from_list) - 1)
        assert sum(from_list, []) == events
        # The list path must yield honest slices (list chunks), so the
        # boundaries above really are the transport chunk boundaries.
        assert all(type(c) is list for c in from_list)


def test_touches_decomposition():
    """Exact for DIRECT per-tuple scans; never an undercount elsewhere."""
    for mode in (Mode.NT, Mode.DIRECT, Mode.UPA):
        base, _ = run_unsharded(query1(_GEN, _WINDOW), _EVENTS, mode)
        res, _ = run_sharded(query1(_GEN, _WINDOW), _EVENTS, mode, 4,
                             "serial")
        if mode is Mode.DIRECT:
            assert res.touches == base.touches
        else:
            # Per-replica pass overhead (FIFO head peeks, partition
            # boundary charges) is additive, never negative.
            assert res.touches >= base.touches
        # And the aggregate equals the per-shard sum by construction.
        assert res.touches == sum(c["touches"] for c in res.shard_counters)


# ---------------------------------------------------------------------------
# hypothesis: random shardable plans, random traces
# ---------------------------------------------------------------------------


@st.composite
def traces(draw, max_events=50, n_streams=2, vmax=4):
    gaps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 6.0]),
                         min_size=5, max_size=max_events))
    events = []
    ts = 0.0
    for gap in gaps:
        ts += gap
        if draw(st.sampled_from([0, 0, 0, 0, 1])):
            events.append(Tick(ts))
        else:
            events.append(Arrival(ts, f"s{draw(st.integers(0, n_streams - 1))}",
                                  (draw(st.integers(0, vmax - 1)),)))
    events.append(Tick(ts + 50.0))
    return events


def _window_sources(window):
    s0, s1 = stream_pair(window)
    return from_window(s0), from_window(s1)


@st.composite
def shardable_plans(draw):
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
def strict_shardable_plans(draw):
    window = draw(st.sampled_from([4, 8, 16]))
    b0, b1 = _window_sources(window)
    negated = b0.minus(b1, on="v")
    if draw(st.booleans()):
        return negated.build()
    return negated.group_by(["v"], [count()]).build()


class TestHypothesisEquivalence:
    @SETTINGS
    @given(plan=shardable_plans(), events=traces(),
           shards=st.sampled_from([2, 3]),
           batch=st.sampled_from([None, 4, 64]))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_negation_free(self, plan, events, shards, batch, mode):
        assert analyze_partitionability(plan).shardable
        base, base_out = run_unsharded(plan, events, mode, batch)
        res, out = run_sharded(plan, events, mode, shards, "serial", batch)
        assert res.answer() == base.answer()
        assert canonical(out) == canonical(base_out)
        snap, base_snap = res.counters.snapshot(), base.counters.snapshot()
        for field in STRUCTURAL:
            assert snap[field] == base_snap[field], field

    @SETTINGS
    @given(plan=strict_shardable_plans(), events=traces(),
           shards=st.sampled_from([2, 3]),
           batch=st.sampled_from([None, 4, 64]))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA])
    def test_strict(self, plan, events, shards, batch, mode):
        base, base_out = run_unsharded(plan, events, mode, batch)
        res, out = run_sharded(plan, events, mode, shards, "serial", batch)
        assert res.answer() == base.answer()
        assert canonical(out) == canonical(base_out)
        snap, base_snap = res.counters.snapshot(), base.counters.snapshot()
        for field in STRUCTURAL:
            assert snap[field] == base_snap[field], field


# ---------------------------------------------------------------------------
# fallbacks and surface behaviour
# ---------------------------------------------------------------------------


class TestFallbacks:
    def test_unshardable_plan_falls_back_with_reason(self):
        s0, _ = stream_pair()
        plan = from_window(s0).group_by([], [count()]).build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        events = random_arrivals(80, n_streams=1)
        result = query.run(events, shards=4)
        assert result.shards == 1
        assert "global group" in result.fallback_reason
        baseline = ContinuousQuery(
            from_window(stream_pair()[0]).group_by([], [count()]).build(),
            ExecutionConfig(mode=Mode.UPA)).run(events)
        assert result.answer() == baseline.answer()

    def test_count_window_fallback_reports_the_live_pipeline(self):
        """After a fallback the sharding surface holds the unsharded
        values — one shard holding every arrival, and the state and
        counters of the pipeline that ran — not zeros and empty lists."""
        stream = StreamDef("s0", V_SCHEMA, CountWindow(50))
        query = ContinuousQuery(from_window(stream).distinct().build())
        result = query.run(random_arrivals(80, n_streams=1), shards=2,
                           shard_backend="serial")
        assert "count-based window" in result.fallback_reason
        assert not result.partitionability.shardable
        assert (result.shards, result.backend) == (1, "inline")
        assert result.per_shard_arrivals == [result.tuples_arrived] == [80]
        assert result.state_size == query.compiled.state_size() > 0
        assert result.shard_counters == [query.counters.snapshot()]
        assert result.counters is query.counters

    def test_shared_group_fallback_reports_the_live_pipelines(self):
        """The same for a shared group: its state is the members' plus the
        shared producers'."""
        group = QueryGroup(shared=True)
        group.add("a", query1(_GEN, _WINDOW))
        group.add("b", query1(_GEN, _WINDOW))
        result = group.run(iter(_EVENTS[:300]), shards=2)
        assert "shared groups" in result.fallback_reason
        assert (result.shards, result.backend) == (1, "inline")
        assert result.per_shard_arrivals == [result.tuples_arrived] == [300]
        assert group.shared_state_size() > 0
        assert result.state_size == group.total_state_size()
        assert result.shard_counters == [
            {name: group[name].counters.snapshot() for name in ("a", "b")}]
        assert result.shared_touches() == group.shared_counters().touches > 0

    def test_explain_carries_shard_marker(self):
        s0, s1 = stream_pair()
        shardable = ContinuousQuery(
            from_window(s0).join(from_window(s1), on="v").build())
        assert "-- sharding: partitionable" in shardable.explain()
        assert "s0 by hash(v)" in shardable.explain()
        unshardable = ContinuousQuery(
            from_window(s0).group_by([], [count()]).build())
        assert "-- sharding: not partitionable" in unshardable.explain()
        assert "global group" in unshardable.explain()

    def test_shards_one_runs_inline(self):
        s0, _ = stream_pair()
        plan = from_window(s0).distinct().build()
        query = ContinuousQuery(plan)
        result = query.run(random_arrivals(60, n_streams=1), shards=1)
        # shards=1 short-circuits to the plain unsharded path: no verdict,
        # no fallback, the unsharded values of the sharding surface.
        assert result.partitionability is None
        assert result.fallback_reason is None
        assert (result.shards, result.backend) == (1, "inline")
        assert result.per_shard_arrivals == [result.tuples_arrived]
        assert result.state_size == query.compiled.state_size()

    def test_on_event_with_shards_rejected(self):
        s0, _ = stream_pair()
        query = ContinuousQuery(from_window(s0).distinct().build())
        with pytest.raises(ExecutionError, match="on_event"):
            query.run(random_arrivals(10, n_streams=1), shards=2,
                      on_event=lambda ex, ev: None)

    def test_warm_executor_rejected(self):
        s0, _ = stream_pair()
        query = ContinuousQuery(from_window(s0).distinct().build())
        query.run(random_arrivals(10, n_streams=1))
        with pytest.raises(ExecutionError, match="fresh"):
            query.run(random_arrivals(10, n_streams=1), shards=2)

    def test_unknown_backend_rejected(self):
        s0, _ = stream_pair()
        with pytest.raises(ConfigError, match="backend"):
            ContinuousQuery(from_window(s0).build()).run(
                [], shards=2, shard_backend="threads")

    def test_sharded_executor_reports_balance(self):
        s0, s1 = stream_pair()
        plan = from_window(s0).join(from_window(s1), on="v").build()
        result = ContinuousQuery(plan).run(random_arrivals(120), shards=3,
                                           shard_backend="serial")
        assert len(result.per_shard_arrivals) == 3
        assert sum(result.per_shard_arrivals) == result.tuples_arrived
        assert result.state_size >= 0
        assert "shards=3" in repr(result)

    def test_armed_worker_runs_chunks_without_materializing_events(
            self, monkeypatch):
        """The shard worker hands ``process_batch`` a decoded chunk, which
        the column loop keeps columnar whether the batch is timed and
        sampled (period 1) or not (a period longer than the run)."""
        from repro.engine.columnar import ChunkTable

        s0, s1 = stream_pair()
        small = Predicate(("v",), lambda vals: vals[0] <= 3, "v <= 3")
        plan = (from_window(s0).where(small)
                .join(from_window(s1), on="v").build())
        events = list(random_arrivals(128))
        monkeypatch.setattr(
            ChunkTable, "to_events",
            lambda self: pytest.fail("chunk materialized as events"))
        answers = []
        for period in (1, sys.maxsize):
            monkeypatch.setattr(Driver, "sample_events", period)
            driver = ContinuousQuery(
                plan, ExecutionConfig(mode=Mode.UPA)).executor
            assert driver.batch_loop().startswith("on (2 column plan(s)")
            driver.process_batch(ChunkTable.from_events(events))
            assert driver.batch_fallbacks == {}
            answers.append((driver.answer(),
                            driver.compiled.counters.snapshot()))
        assert answers[0] == answers[1]

    def test_row_loop_members_share_one_materialization(self, monkeypatch):
        """A replica hands every member the decoded table; row-loop members
        build the chunk's events once per chunk, not once per member."""
        from repro.engine.columnar import ChunkTable
        from repro.engine.shard import _Replica

        s0, _ = stream_pair()
        plan = from_window(s0).distinct().build()  # no prefix: row loop
        replica = _Replica([("a", plan, None), ("b", plan, None)], 64,
                           [False, False])
        assert all(driver.batch_loop().startswith("row loop")
                   for _name, driver in replica.drivers)
        built = []
        row_values = ChunkTable.row_values
        monkeypatch.setattr(ChunkTable, "row_values",
                            lambda self: built.append(1) or row_values(self))
        events = random_arrivals(64, n_streams=1)[:-1]  # no draining tick
        replica.feed(ChunkTable.from_events(events))
        assert len(built) == 1
        answers = [driver.answer() for _name, driver in replica.drivers]
        assert answers[0] == answers[1] and sum(answers[0].values()) > 0

    def test_sharded_touches_per_event_removed(self):
        s0, _ = stream_pair()
        plan = from_window(s0).distinct().build()
        result = ContinuousQuery(plan).run(random_arrivals(40, n_streams=1),
                                           shards=2, shard_backend="serial")
        assert result.shards == 2
        assert not hasattr(result, "touches_per_event")


# ---------------------------------------------------------------------------
# group sharding
# ---------------------------------------------------------------------------


def _make_group(gen):
    group = QueryGroup()
    group.add("q1", query1(gen, _WINDOW), ExecutionConfig(mode=Mode.NT))
    group.add("q2", query2(gen, _WINDOW), ExecutionConfig(mode=Mode.UPA))
    group.add("q3", query3(gen, _WINDOW), ExecutionConfig(mode=Mode.UPA))
    return group


def _subscribe_members(group):
    """Attach a recording subscriber to every member; name -> outputs."""
    outputs = {name: [] for name in group.names()}
    for name, sink in outputs.items():
        group[name].subscribe(lambda t, now, sink=sink: sink.append((t, now)))
    return outputs


class TestGroupSharding:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("batch", [None, 64])
    def test_matches_unsharded_group(self, backend, batch):
        base = _make_group(_GEN).run(iter(_EVENTS), batch=batch)
        result = _make_group(_GEN).run(iter(_EVENTS), batch=batch,
                                       shards=3, shard_backend=backend)
        assert result.fallback_reason is None
        assert result.shards == 3 and result.backend == backend
        for name in ("q1", "q2", "q3"):
            assert result.answer(name) == base.answer(name), (backend, name)
        assert result.events_processed == base.events_processed
        assert result.tuples_arrived == base.tuples_arrived
        assert set(result.touches()) == {"q1", "q2", "q3"}
        assert result.total_touches() == sum(result.touches().values())

    def test_group_member_counters_decompose(self):
        base = _make_group(_GEN).run(iter(_EVENTS))
        result = _make_group(_GEN).run(iter(_EVENTS), shards=2,
                                       shard_backend="serial")
        for name in ("q1", "q2", "q3"):
            base_snap = base.group[name].counters.snapshot()
            snap = result.member_counters[name].snapshot()
            for field in STRUCTURAL:
                assert snap[field] == base_snap[field], (name, field)
            # Aggregate equals the per-shard sum for every counter.
            for field, value in snap.items():
                assert value == sum(shard[name][field]
                                    for shard in result.shard_counters)

    @pytest.mark.parametrize("batch", [None, 64])
    def test_member_subscribers_receive_the_merged_stream(self, batch):
        """A subscriber on a group member gets, sharded, the per-instant
        output multiset (insertions and negative tuples) it gets unsharded
        — in an order that no backend or chunk size moves."""
        base_out = _subscribe_members(base := _make_group(_GEN))
        base.run(iter(_EVENTS), batch=batch)
        assert all(base_out.values()), "every member must emit something"
        assert any(t.sign < 0 for t, _now in base_out["q3"])
        streams = {}
        for backend in ("serial", "process"):
            out = _subscribe_members(group := _make_group(_GEN))
            result = group.run(iter(_EVENTS), batch=batch, shards=3,
                               shard_backend=backend)
            assert result.fallback_reason is None
            for name in ("q1", "q2", "q3"):
                assert canonical(out[name]) == canonical(base_out[name]), \
                    (backend, name)
            streams[backend] = {name: stream_key(out[name]) for name in out}
        assert streams["serial"] == streams["process"]
        if batch is not None:
            out = _subscribe_members(group := _make_group(_GEN))
            group.run(iter(_EVENTS), shards=3, shard_backend="serial")
            assert streams["serial"] == {name: stream_key(out[name])
                                         for name in out}

    def test_unsubscribed_members_are_not_collected(self):
        """Only members with subscribers pay for output records."""
        group = _make_group(_GEN)
        seen = []
        group["q2"].subscribe(lambda t, now: seen.append((t, now)))
        base_out = _subscribe_members(base := _make_group(_GEN))
        base.run(iter(_EVENTS))
        group.run(iter(_EVENTS), shards=2, shard_backend="serial")
        assert canonical(seen) == canonical(base_out["q2"])

    def test_process_group_crosses_both_transports(self, monkeypatch):
        """One trace, both transports: representable chunks ride the fused
        shm ``cshard`` message, and the one chunk ``encode_routed`` cannot
        represent (ragged value tuples on a stream nobody reads) falls back
        to the pickle ``chunk`` message — for a group as for a query."""
        from repro.engine import shard

        sent = Multiset()
        real_send = shard._ProcessShards._send

        def counting_send(self, conn, message):
            sent[message[0]] += 1
            real_send(self, conn, message)

        monkeypatch.setattr(shard._ProcessShards, "_send", counting_send)
        events = list(_EVENTS[:254])
        at = events[70].ts  # inside the second 64-event chunk
        events[70:70] = [Arrival(at, "noise", (1,)),
                         Arrival(at, "noise", (1, 2))]
        base_out = _subscribe_members(base := _make_group(_GEN))
        base_result = base.run(list(events), batch=64)
        out = _subscribe_members(group := _make_group(_GEN))
        result = group.run(list(events), batch=64, shards=2,
                           shard_backend="process")
        assert result.backend == "process"
        assert sent == {"cshard": 2 * 3, "chunk": 2 * 1, "finish": 2}
        for name in ("q1", "q2", "q3"):
            assert result.answer(name) == base_result.answer(name), name
            assert canonical(out[name]) == canonical(base_out[name]), name
        assert result.tuples_arrived == base_result.tuples_arrived

    def test_shared_group_falls_back(self):
        group = QueryGroup(shared=True)
        group.add("a", query1(_GEN, _WINDOW))
        group.add("b", query1(_GEN, _WINDOW))
        result = group.run(iter(_EVENTS), shards=2)
        assert "shared groups" in result.fallback_reason
        assert result.answer("a") == result.answer("b")

    def test_conflicting_members_fall_back(self):
        schema = Schema(["a", "b"])
        stream = StreamDef("pairs", schema, TimeWindow(8))
        group = QueryGroup()
        group.add("on_a", DupElim(Project(WindowScan(stream), ["a"])))
        group.add("on_b", DupElim(Project(WindowScan(stream), ["b"])))
        members = [(name, group[name].plan, group[name].config)
                   for name in group.names()]
        verdict = analyze_group_partitionability(members)
        assert not verdict.shardable
        events = [Arrival(float(i + 1), "pairs", (i % 3, i % 2))
                  for i in range(40)]
        result = group.run(events, shards=2)
        assert result.fallback_reason is not None
        base = QueryGroup()
        base.add("on_a", DupElim(Project(WindowScan(stream), ["a"])))
        base.add("on_b", DupElim(Project(WindowScan(stream), ["b"])))
        base_result = base.run(list(events))
        assert result.answer("on_a") == base_result.answer("on_a")
        assert result.answer("on_b") == base_result.answer("on_b")


@st.composite
def member_plans(draw):
    return [draw(shardable_plans()) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans=member_plans(), events=traces(),
       mode=st.sampled_from([Mode.NT, Mode.DIRECT, Mode.UPA]))
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("batch", [None, 64])
def test_replica_of_n_members_equals_n_one_member_runs(
        plans, events, mode, backend, batch):
    """What a replica holds is invisible to each member: an N-member
    sharded group equals N single-query sharded runs in answers,
    per-instant outputs and structural counters, and its member totals
    are exactly the sums over its shards."""
    group = QueryGroup()
    for i, plan in enumerate(plans):
        group.add(f"m{i}", plan, ExecutionConfig(mode=mode))
    out = _subscribe_members(group)
    result = group.run(list(events), batch=batch, shards=2,
                       shard_backend=backend)
    assert result.fallback_reason is None and result.backend == backend
    assert len(result.shard_counters) == 2
    for i, plan in enumerate(plans):
        name = f"m{i}"
        alone, alone_out = run_sharded(plan, events, mode, 2, backend, batch)
        assert result.answer(name) == alone.answer(), name
        assert canonical(out[name]) == canonical(alone_out), name
        snap = result.member_counters[name].snapshot()
        alone_snap = alone.counters.snapshot()
        for field in STRUCTURAL:
            assert snap[field] == alone_snap[field], (name, field)
        for field, value in snap.items():
            assert value == sum(shard[name][field]
                                for shard in result.shard_counters), field


def test_one_worker_main_one_class_per_backend():
    """Groups and queries share the sharded runtime: one worker loop, one
    class per backend, and one parent loop that ``ContinuousQuery.run``
    and ``QueryGroup.run`` call directly — neither feeds a chunk itself."""
    import inspect

    from repro.engine import executor, multi, query, shard

    own = {name: obj for name, obj in vars(shard).items()
           if getattr(obj, "__module__", None) == shard.__name__}
    assert [name for name in own if name.endswith("worker_main")] \
        == ["_shard_worker_main"]
    assert sorted(name for name, obj in own.items()
                  if inspect.isclass(obj) and hasattr(obj, "feed_chunk")) \
        == ["_ProcessShards", "_SerialShards"]
    # One parent loop: the run entry points call it, none of its pieces.
    assert inspect.getsource(shard).count("_chunked(") == 1
    for entry in (query.ContinuousQuery.run, multi.QueryGroup.run):
        source = inspect.getsource(entry)
        assert source.count("_run_replicas(") == 1
        for piece in ("feed_chunk", "route_chunk", "_Merger", "Shards("):
            assert piece not in source, (entry, piece)
    assert multi._chunked is executor._chunked is shard._chunked \
        is query._chunked


def test_compile_plan_unaffected_by_analysis():
    """The analysis is purely static: compiling after analysing produces
    the same pipeline as compiling alone (no hidden coupling)."""
    s0, s1 = stream_pair()
    plan = from_window(s0).join(from_window(s1), on="v").build()
    analyze_partitionability(plan)
    compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
    driver = Driver(compiled, build_program(compiled))
    for event in random_arrivals(100):
        driver.process_event(event)
    baseline = ContinuousQuery(
        from_window(s0).join(from_window(s1), on="v").build(),
        ExecutionConfig(mode=Mode.UPA)).run(random_arrivals(100))
    assert driver.answer() == baseline.answer()
