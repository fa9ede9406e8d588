"""Shared-plan multi-query execution (QueryGroup(shared=True)).

The contract under test is *transparency*: a shared group produces, for
every member, the byte-identical output stream, answer multiset and
state-touch decomposition that independent execution produces — across
strategies, micro-batching, and dynamic membership changes — while
actually collapsing common subplans into single producers.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    NRR,
    Arrival,
    ConfigError,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    QueryGroup,
    Relation,
    RelationUpdate,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    from_window,
)
from repro.core.plan import SharedScan
from repro.engine.driver import Driver
from repro.engine.views import StateView
from repro.operators.stateless import PortOp
from repro.workloads.queries import (
    query1,
    query2,
    query3,
    query4,
    query5_pullup,
    query5_pushdown,
)
from repro.workloads.traffic import TrafficConfig, TrafficTraceGenerator

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: The five experimental queries (E1–E5) in their tested variants.
FACTORIES = {
    "q1_ftp": lambda g, w: query1(g, w),
    "q1_telnet": lambda g, w: query1(g, w, protocol="telnet"),
    "q2": lambda g, w: query2(g, w),
    "q2_pairs": lambda g, w: query2(g, w, pairs=True),
    "q3": lambda g, w: query3(g, w),
    "q4": lambda g, w: query4(g, w),
    "q5_up": lambda g, w: query5_pullup(g, w),
    "q5_down": lambda g, w: query5_pushdown(g, w),
}
#: Negation-free subset (the direct approach rejects STR plans).
DIRECT_OK = ["q1_ftp", "q1_telnet", "q2", "q2_pairs", "q4"]
#: Counters that do not depend on the expiration schedule.
STRUCTURAL = ("inserts", "deletes", "expirations", "tuples_processed",
              "negatives_processed", "results_produced")


def trace(n=400, seed=11):
    gen = TrafficTraceGenerator(TrafficConfig(seed=seed))
    return list(gen.events(n))


def build_group(shared, names, mode, window=30.0, seed=11):
    gen = TrafficTraceGenerator(TrafficConfig(seed=seed))
    group = QueryGroup(shared=shared)
    for index, name in enumerate(names):
        group.add(f"m{index}_{name}", FACTORIES[name](gen, window),
                  ExecutionConfig(mode=mode))
    return group


def run_both(names, mode, events, batch=None, window=30.0):
    """Run shared and independent twins; capture their output streams."""
    ind = build_group(False, names, mode, window)
    sh = build_group(True, names, mode, window)
    streams = {}
    for group, kind in ((ind, "ind"), (sh, "sh")):
        for member in group.names():
            sink = streams.setdefault(kind, {}).setdefault(member, [])
            group[member].subscribe(
                lambda t, now, sink=sink: sink.append(
                    (t.values, t.ts, t.exp, t.sign)))
    ind.run(events, batch=batch)
    sh.run(events, batch=batch)
    return ind, sh, streams


def member_of(group, name):
    """A member's query and the producers it consumes, with multiplicity
    (one per shared port of its residual plan)."""
    query = group[name]  # seals
    return query, [producer for producer, _port in group._members[name][1]]


def stored_view_term(query, producers, alone):
    """What a shared member charges for *storing* a view its independent
    twin answers from its root operator's state (a ``StateView``: a UPA
    bag ⋈ bag join, a δ operator, a group-by).

    Only a whole-plan share is in that position — its root operator lives
    in the producer, its own plan is one transparent port, so every count
    it charges is its stored view's: one insert per result the producer
    made, and their later expirations and touches.  Any other member has
    the same view kind on both sides and the term is zero.
    """
    view, twin = query.compiled.view, alone.compiled.view
    if isinstance(view, StateView) or not isinstance(twin, StateView):
        return dict.fromkeys(alone.counters.snapshot(), 0)
    assert isinstance(query.plan, SharedScan)
    term = query.counters.snapshot()
    assert term["inserts"] == sum(
        p.counters.results_produced for p in producers)
    assert term["expirations"] <= term["inserts"]
    assert not (term["deletes"] or term["probes"] or term["tuples_processed"]
                or term["results_produced"])
    return term


class TestEquivalence:
    """shared == independent == single-query, E1–E5 × strategies."""

    @SETTINGS
    @given(data=st.data())
    def test_property_shared_equals_independent(self, data):
        mode = data.draw(st.sampled_from([Mode.NT, Mode.DIRECT, Mode.UPA]))
        pool = DIRECT_OK if mode is Mode.DIRECT else list(FACTORIES)
        names = data.draw(st.lists(st.sampled_from(pool),
                                   min_size=2, max_size=5))
        batch = data.draw(st.sampled_from([None, 7, 64]))
        window = data.draw(st.sampled_from([15.0, 40.0]))
        events = trace(350)
        ind, sh, streams = run_both(names, mode, events, batch, window)
        assert sh.answers() == ind.answers()
        # Every member replays the exact output stream, negative tuples
        # included, per-tuple and batched alike.
        assert streams["sh"] == streams["ind"]
        # independent + stored view = residual + Σ producers, per member:
        # the structural counters always, touches and probes when nothing
        # is amortized.
        fields = STRUCTURAL + (("touches", "probes") if batch is None else ())
        for member_name in ind.names():
            query, producers = member_of(sh, member_name)
            alone = ind[member_name].counters.snapshot()
            view = stored_view_term(query, producers, ind[member_name])
            parts = [query.counters.snapshot()] + [
                p.counters.snapshot() for p in producers]
            for field in fields:
                assert sum(part[field] for part in parts) \
                    == alone[field] + view[field], (member_name, field)

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA])
    def test_counter_decomposition_is_exact(self, mode):
        """independent touches (+ the stored view's, where the twin's view
        is virtual) == residual touches + consumed producers'."""
        names = ["q1_ftp", "q1_ftp", "q1_telnet", "q1_telnet", "q2", "q3",
                 "q4", "q5_up"]
        events = trace(400)
        ind, sh, _ = run_both(names, mode, events)
        virtual = 0
        for member_name in ind.names():
            query, producers = member_of(sh, member_name)
            view = stored_view_term(query, producers, ind[member_name])
            virtual += bool(view["inserts"])
            recomposed = query.counters.touches + sum(
                p.counters.touches for p in producers)
            assert recomposed \
                == ind[member_name].counters.touches + view["touches"]
        # The whole-plan shares are the case with a term: the two telnet
        # Query 1 members (ftp joins nothing on this trace) and Query 2,
        # whose δ is the one q4's left input reads (q4's δ ⋈ δ stores its
        # view on both sides).
        assert virtual == (3 if mode is Mode.UPA else 0)

    def test_single_query_is_the_independent_member(self):
        """An independent group member is literally a single standalone
        query; pin it explicitly for one workload anyway."""
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        single = ContinuousQuery(query3(gen, 30.0),
                                 ExecutionConfig(mode=Mode.UPA))
        events = trace(400)
        for event in events:
            single.executor.process_event(event)
        _ind, sh, _ = run_both(["q3", "q3"], Mode.UPA, events)
        for name in sh.names():
            assert dict(sh[name].answer()) == dict(single.answer())

    def test_batched_shared_equals_unbatched_shared(self):
        events = trace(400)
        names = ["q1_telnet", "q1_telnet", "q3", "q5_down"]
        _, sh_plain, _ = run_both(names, Mode.NT, events, batch=None)
        _, sh_batched, _ = run_both(names, Mode.NT, events, batch=64)
        assert sh_plain.answers() == sh_batched.answers()

    @pytest.mark.parametrize("batch", [None, 7])
    @pytest.mark.parametrize("table,mode", [
        (Relation, Mode.NT), (Relation, Mode.UPA),
        (NRR, Mode.DIRECT), (NRR, Mode.UPA)])
    def test_relation_join_above_a_shared_subtree(self, table, mode, batch):
        """Relation joins never fuse, but the δ below them does: a
        RelationUpdate is dispatched by each member's own driver and only
        advances time in the producer."""
        events = []
        ts = 0.0
        for i in range(80):
            ts += 1.0
            events.append(Arrival(ts, "s", (i % 4,)))
            if i % 7 == 3:
                events.append(RelationUpdate(
                    ts, "r", "delete" if i % 14 == 3 else "insert",
                    (1, "one")))
            if i % 11 == 5:
                ts += 3.0
                events.append(Tick(ts))

        def run(shared):
            group = QueryGroup(shared=shared)
            streams = {}
            for name in ("one", "uno"):
                # One table object per member: updates mutate it.
                rel = table("r", Schema(["k", "m"]), [(1, "one"), (2, name)])
                source = from_window(
                    StreamDef("s", Schema(["v"]), TimeWindow(10))).distinct()
                join = (source.join_relation if table is Relation
                        else source.join_nrr)
                group.add(name, join(rel, on="v", rel_on="k").build(),
                          ExecutionConfig(mode=mode))
            for name in group.names():
                sink = streams[name] = []
                group[name].subscribe(
                    lambda t, now, sink=sink: sink.append(
                        (t.values, t.ts, t.exp, t.sign)))
            group.run(events, batch=batch)
            return group, streams

        ind, ind_streams = run(False)
        sh, sh_streams = run(True)
        assert [p.consumers for p in sh.shared_producers()] == [2]
        assert sh_streams == ind_streams
        assert sh.answers() == ind.answers()


class TestLockstep:
    """Members run in lockstep: one subscriber on every member sees, per
    tuple, each event's outputs member by member, and batched, each
    chunk's outputs member by member — independent or shared alike."""

    NAMES = ["q2", "q2", "q4"]

    @pytest.mark.parametrize("batch", [None, 7])
    @pytest.mark.parametrize("shared", [False, True])
    def test_one_callback_on_every_member(self, shared, batch):
        events = trace(300)
        group = build_group(shared, self.NAMES, Mode.UPA)
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        alone = [ContinuousQuery(FACTORIES[name](gen, 30.0),
                                 ExecutionConfig(mode=Mode.UPA))
                 for name in self.NAMES]
        streams = []
        for queries in ([group[name] for name in group.names()], alone):
            sink = []
            streams.append(sink)
            for index, query in enumerate(queries):
                query.subscribe(lambda t, now, index=index, sink=sink:
                                sink.append((index, t.values, t.ts, t.exp,
                                             t.sign, now)))
        group.run(events, batch=batch)
        # The reference lockstep, by hand, over standalone queries.
        for start in range(0, len(events), batch or 1):
            for query in alone:
                if batch is None:
                    query.executor.process_event(events[start])
                else:
                    query.executor.process_batch(
                        events[start:start + batch])
        assert {record[0] for record in streams[1]} == {0, 1, 2}
        assert streams[0] == streams[1]


class TestOneEventLoop:
    """Fused groups run on the compiled driver; a port is a source leaf."""

    NAMES = ["q2", "q4", "q3", "q1_ftp", "q1_ftp"]

    @pytest.mark.parametrize("batch", [None, 64])
    def test_shared_run_never_enters_the_interpreter(self, batch):
        sh = build_group(True, self.NAMES, Mode.UPA)
        ind = build_group(False, self.NAMES, Mode.UPA)
        sh.run(trace(300), batch=batch)
        ind.run(trace(300), batch=batch)
        assert sh.answers() == ind.answers()
        fused = [query for query, producers in
                 (member_of(sh, name) for name in sh.names()) if producers]
        assert len(fused) >= 4 and sh.shared_producers()
        for query in fused:
            driver = query.executor
            loop = driver.batch_loop()
            assert "(shared port)" in loop and "row arrivals: " in loop
            # A port is never a prelude stream.
            ports = {stream for stream, plans in
                     driver.compiled.dispatch.items()
                     if any(isinstance(plan.leaf, PortOp) for plan in plans)}
            assert ports and ports.isdisjoint(driver._preludes)

    def test_reference_loop_replays_a_fused_member(self):
        """``reference_step(driver, e)`` stays the test reference: it
        knows the port leaf too, counters and all."""
        from repro.testing import reference_step

        events = trace(300)
        fast = build_group(True, ["q2", "q4"], Mode.UPA)
        fast.run(events)
        slow = build_group(True, ["q2", "q4"], Mode.UPA)
        producers = slow.shared_producers()
        for event in events:
            for producer in producers:
                producer.run((event,))
            for name in slow.names():
                reference_step(slow[name].executor, event)
        assert slow.answers() == fast.answers()
        for name in fast.names():
            assert slow[name].counters.snapshot() == \
                fast[name].counters.snapshot()

    def test_port_replays_through_cursors(self):
        from repro import Schema
        from repro.core.metrics import Counters
        from repro.core.tuples import Tuple
        from repro.operators.stateless import PortOp

        port = PortOp(Schema(["v"]), Counters())
        assert port.next_expiry(0.0) == float("inf")
        assert port.expire(5.0) == []
        a, b, c = (Tuple((i,), float(i), float(i) + 10.0) for i in range(3))
        expired, arrived = [(3.0, [a.negate()]), (7.0, [b.negate()])], \
            [[a], [], [b, c]]
        port.bind(expired, arrived)
        assert port.next_expiry(0.0) == 3.0
        assert port.expire(2.0) == []           # not due yet
        got = port.expire(3.0)
        assert got == [a.negate()] and got is not expired[0][1]  # a copy
        assert port.next_expiry(3.0) == 7.0
        assert port.expire(3.0) == []           # one record per clock
        assert port.expire(9.0) == [b.negate()]
        assert port.next_expiry(9.0) == float("inf")
        assert [port.pull(), port.pull(), port.pull()] == arrived
        # The producer clears both logs in place per batch and rewinds.
        expired[:] = [(11.0, [c.negate()])]
        arrived[:] = [[c]]
        port.rewind()
        assert port.next_expiry(9.0) == 11.0
        assert port.pull() == [c]
        assert port.expire(11.0) == [c.negate()]
        # Transparent: independent execution has no such operator.
        assert not any(port.counters.snapshot().values())
        assert port.clock == float("-inf")

    @pytest.mark.parametrize("batch", [None, 16])
    def test_fused_group_lints_clean_when_sampled(self, batch, monkeypatch):
        """A fused group lints clean and matches a bare group with every
        batch (and, per tuple, every event) sampled and timed."""
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        config = ExecutionConfig(mode=Mode.UPA)
        armed, bare = QueryGroup(shared=True), QueryGroup(shared=True)
        for group in (armed, bare):
            for name in ("q2", "q4", "q3", "q3"):
                group.add(f"{name}_{len(group)}", FACTORIES[name](gen, 30.0),
                          config)
        events = trace(300)
        bare.run(events, batch=batch)
        monkeypatch.setattr(Driver, "sample_events", 1)
        result = armed.run(events, batch=batch)  # sample + flush
        assert armed.answers() == bare.answers()
        assert armed.shared_producers()
        assert all(member_of(armed, name)[1] for name in armed.names())
        for name in armed.names():
            assert "-- lint: clean" in armed[name].explain()
            assert armed[name].counters.snapshot() == \
                bare[name].counters.snapshot()
        merged = result.metrics
        assert merged.find("op_expire_seconds", query=armed.names()[0])
        assert any("producer" in inst.labels for inst in merged)
        for producer in armed.shared_producers():
            registry = producer.compiled.metrics
            assert registry.value("events_processed") == len(events)
            # Sampled during the run, not only by the closing flush.
            assert registry.find("state_tuples")[0].count > 1


class TestSharingActuallyShares:
    def test_identical_plans_fuse_into_one_producer(self):
        group = build_group(True, ["q1_ftp", "q1_ftp", "q1_ftp"], Mode.UPA)
        producers = group.shared_producers()
        assert len(producers) == 1
        assert producers[0].consumers == 3

    def test_window_scans_fuse_across_different_queries(self):
        # Distinct plans, one common stateful subtree: q2 and q4 both sit
        # on δ(π_src link0).  (Bare window scans hold no state under UPA
        # and get no producer; see test_only_state_is_shared.)
        group = build_group(True, ["q2", "q4", "q3"], Mode.UPA)
        group.run(trace(100))
        assert [p.plan.describe() for p in group.shared_producers()] \
            == ["DupElim"]

    @pytest.mark.parametrize("mode,expected", [
        (Mode.UPA, 0), (Mode.DIRECT, 0), (Mode.NT, 1)])
    def test_only_state_is_shared(self, mode, expected):
        """Section 5.1 shares operator *state*: a σ over a window stores
        nothing under DIRECT / UPA (no producer), but NT materializes it."""
        from repro import Schema, StreamDef, TimeWindow, attr_equals, \
            from_window

        clicks = StreamDef("clicks", Schema(["user", "action"]),
                           TimeWindow(10))
        views = from_window(clicks).where(attr_equals("action", "view"))
        group = QueryGroup(shared=True)
        group.add("events", views.build(), ExecutionConfig(mode=mode))
        group.add("users", views.project("user").build(),
                  ExecutionConfig(mode=mode))
        assert len(group.shared_producers()) == expected

    def test_different_configs_never_fuse(self):
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        group = QueryGroup(shared=True)
        group.add("a", query2(gen, 30.0), ExecutionConfig(mode=Mode.NT))
        group.add("b", query2(gen, 30.0), ExecutionConfig(mode=Mode.UPA))
        group.run(trace(50))
        assert not group.shared_producers()

    def test_shared_state_is_sublinear(self):
        events = trace(300)
        sh4 = build_group(True, ["q1_ftp"] * 4, Mode.UPA)
        ind4 = build_group(False, ["q1_ftp"] * 4, Mode.UPA)
        sh4.run(events)
        ind4.run(events)
        shared_total = sh4.total_state_size()
        independent_total = ind4.total_state_size()
        assert shared_total < independent_total

    def test_explain_prints_fused_dag(self):
        group = build_group(True, ["q1_ftp", "q1_ftp", "q3"], Mode.UPA)
        text = group.explain()
        assert "shared×" in text
        assert "Shared[" in text
        assert "fused" in text

    def test_count_windows_stay_private(self):
        from repro import CountWindow, Schema, StreamDef, from_window

        schema = Schema(["v"])
        plan = from_window(StreamDef("s0", schema, CountWindow(5))).build()
        plan2 = from_window(StreamDef("s0", schema, CountWindow(5))).build()
        group = QueryGroup(shared=True)
        group.add("a", plan)
        group.add("b", plan2)
        group.run([Arrival(float(i), "s0", (i,)) for i in range(10)])
        assert not group.shared_producers()
        assert group.answers()["a"] == group.answers()["b"]


class TestDynamicMembership:
    def test_remove_then_readd_matches_fresh_group(self):
        """Regression (satellite c): remove + re-add before running leaves
        answers and counters identical to a never-touched group."""
        events = trace(300)
        churned = build_group(True, ["q1_ftp", "q1_ftp", "q3"], Mode.UPA)
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        churned.remove("m2_q3")
        churned.add("m2_q3", query3(gen, 30.0),
                    ExecutionConfig(mode=Mode.UPA))
        fresh = build_group(True, ["q1_ftp", "q1_ftp", "q3"], Mode.UPA)
        churned.run(events)
        fresh.run(events)
        assert churned.answers() == fresh.answers()
        assert {n: churned[n].counters.touches for n in churned.names()} == \
            {n: fresh[n].counters.touches for n in fresh.names()}
        assert churned.shared_counters().touches == \
            fresh.shared_counters().touches

    def test_midrun_add_runs_privately_and_exactly(self):
        events = trace(400)
        group = build_group(True, ["q1_ftp", "q1_ftp"], Mode.UPA)
        group.run(events[:200])
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        group.add("late", query2(gen, 30.0), ExecutionConfig(mode=Mode.UPA))
        group.run(events[200:])
        gen2 = TrafficTraceGenerator(TrafficConfig(seed=11))
        reference = ContinuousQuery(query2(gen2, 30.0),
                                    ExecutionConfig(mode=Mode.UPA))
        for event in events[200:]:
            reference.executor.process_event(event)
        assert dict(group["late"].answer()) == dict(reference.answer())

    def test_midrun_remove_keeps_survivors_exact(self):
        events = trace(400)
        group = build_group(True, ["q1_ftp", "q1_ftp", "q2"], Mode.NT)
        group.run(events[:200])
        group.remove("m1_q1_ftp")
        group.run(events[200:])
        ind = build_group(False, ["q1_ftp", "q1_ftp", "q2"], Mode.NT)
        ind.run(events)
        assert dict(group["m0_q1_ftp"].answer()) == \
            dict(ind["m0_q1_ftp"].answer())
        assert dict(group["m2_q2"].answer()) == dict(ind["m2_q2"].answer())

    def test_refcounted_teardown(self):
        group = build_group(True, ["q1_ftp", "q1_ftp", "q1_ftp"], Mode.UPA)
        group.run(trace(100))
        (producer,) = group.shared_producers()
        assert producer.consumers == 3
        group.remove("m0_q1_ftp")
        assert producer.consumers == 2
        assert group.shared_producers()  # still alive: consumers remain
        group.remove("m1_q1_ftp")
        group.remove("m2_q1_ftp")
        assert not group.shared_producers()  # last consumer freed the state

    def test_duplicate_name_rejected_pre_and_post_seal(self):
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        group = build_group(True, ["q2"], Mode.UPA)
        with pytest.raises(KeyError):
            group.add("m0_q2", query2(gen, 30.0))
        group.run(trace(20))
        with pytest.raises(KeyError):
            group.add("m0_q2", query2(gen, 30.0))


class TestGroupMetrics:
    def test_time_per_1000_is_arrivals_based(self):
        group = build_group(False, ["q2"], Mode.UPA)
        result = group.run(trace(200))
        assert result.tuples_arrived == 200
        assert result.time_per_1000() == pytest.approx(
            result.elapsed * 1000.0 / result.tuples_arrived)

    def test_events_processed_still_counts_everything(self):
        from repro import Tick

        events = trace(100) + [Tick(10_000.0)]
        group = build_group(False, ["q2"], Mode.UPA)
        result = group.run(events)
        assert result.events_processed == 101
        assert result.tuples_arrived == 100

    def test_total_touches_decomposes(self):
        events = trace(200)
        group = build_group(True, ["q1_ftp", "q1_ftp"], Mode.UPA)
        result = group.run(events)
        assert result.total_touches() == \
            sum(result.touches().values()) + result.shared_touches()
        assert result.shared_touches() > 0

    def test_empty_run(self):
        group = build_group(False, ["q2"], Mode.UPA)
        result = group.run([])
        assert result.time_per_1000() == 0.0

    def test_batch_plumbs_through_independent_groups(self):
        events = trace(300)
        plain = build_group(False, ["q2", "q4"], Mode.UPA)
        batched = build_group(False, ["q2", "q4"], Mode.UPA)
        plain.run(events)
        batched.run(events, batch=32)
        assert plain.answers() == batched.answers()

    def test_invalid_batch_size(self):
        group = build_group(False, ["q2"], Mode.UPA)
        with pytest.raises(ConfigError, match="batch must be >= 1"):
            group.run(trace(10), batch=0)

    def test_shared_group_rejects_precompiled_queries(self):
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        query = ContinuousQuery(query2(gen, 30.0))
        with pytest.raises(ValueError):
            QueryGroup({"pre": query}, shared=True)
