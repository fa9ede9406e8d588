"""Shared-plan multi-query execution: every QueryGroup shares.

The contract under test is *transparency*: a group produces, for every
member, the byte-identical output stream, answer multiset and state-touch
decomposition that running each query alone produces — across strategies,
micro-batching, and dynamic membership changes — while actually
collapsing common subplans into single producers.  The independent twin
is a group of precompiled members (``QueryGroup({name: query})``: the
group did not compile them, so it shares nothing).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    NRR,
    AggregateSpec,
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
from repro.core.metrics import Counters
from repro.core.plan import SharedScan
from repro.engine.driver import Driver
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
    # A group-by root: the grp_src benchmark query's shape.
    "grp": lambda g, w: from_window(g.stream_def(0, w)).group_by(
        ["src_ip"], [AggregateSpec("count", None, "n"),
                     AggregateSpec("sum", "bytes", "total")]).build(),
}
#: Negation-free subset (the direct approach rejects STR plans).
DIRECT_OK = ["q1_ftp", "q1_telnet", "q2", "q2_pairs", "q4", "grp"]
#: Counters that do not depend on the expiration schedule.
STRUCTURAL = ("inserts", "deletes", "expirations", "tuples_processed",
              "negatives_processed", "results_produced")


def trace(n=400, seed=11):
    gen = TrafficTraceGenerator(TrafficConfig(seed=seed))
    return list(gen.events(n))


def build_group(names, mode, window=30.0, seed=11, precompiled=False):
    """A group of the named factories; ``precompiled`` members are
    compiled before the group sees them, so it shares nothing."""
    gen = TrafficTraceGenerator(TrafficConfig(seed=seed))
    plans = {f"m{index}_{name}": FACTORIES[name](gen, window)
             for index, name in enumerate(names)}
    config = ExecutionConfig(mode=mode)
    if precompiled:
        return QueryGroup({name: ContinuousQuery(plan, config)
                           for name, plan in plans.items()})
    group = QueryGroup()
    for name, plan in plans.items():
        group.add(name, plan, config)
    return group


def run_both(names, mode, events, batch=None, window=30.0):
    """Run a group and its precompiled twin; capture their output
    streams."""
    ind = build_group(names, mode, window, precompiled=True)
    sh = build_group(names, mode, window)
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


def recomposed(query, producers):
    """A member's counters plus its producers': what the query costs
    alone.  A whole-plan member (its residual one port) also reads the
    view its producer keeps for it."""
    parts = [query.counters] + [p.counters for p in producers]
    if isinstance(query.plan, SharedScan):
        parts += [p.view_counters for p in producers]
    return Counters.total(part.snapshot() for part in parts).snapshot()


class TestEquivalence:
    """group == precompiled twin == single query, E1–E5 × strategies."""

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
        # alone = residual + Σ producers, per member: the structural
        # counters always, touches and probes when nothing is amortized.
        fields = STRUCTURAL + (("touches", "probes") if batch is None else ())
        for member_name in ind.names():
            query, producers = member_of(sh, member_name)
            alone = ind[member_name].counters.snapshot()
            parts = recomposed(query, producers)
            for field in fields:
                assert parts[field] == alone[field], (member_name, field)

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA])
    def test_counter_decomposition_is_exact(self, mode):
        """alone == residual + consumed producers', every counter, and a
        whole-plan member stores nothing: its residual charges nothing."""
        names = ["q1_ftp", "q1_ftp", "q1_telnet", "q1_telnet", "q2", "q3",
                 "q4", "q5_up"]
        events = trace(400)
        ind, sh, _ = run_both(names, mode, events)
        whole = []
        for member_name in ind.names():
            query, producers = member_of(sh, member_name)
            assert recomposed(query, producers) \
                == ind[member_name].counters.snapshot(), member_name
            if isinstance(query.plan, SharedScan):
                whole.append(member_name)
                assert len(query.compiled.view) == 0
                assert not any(query.counters.snapshot().values())
        # Both Query 1 pairs and Query 2, whose δ is also the one q4's
        # left input reads.
        assert whole == ["m0_q1_ftp", "m1_q1_ftp", "m2_q1_telnet",
                         "m3_q1_telnet", "m4_q2"]

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
        assert sh.run([]).total_touches() == single.counters.touches

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

        def run(precompiled):
            plans = {}
            for name in ("one", "uno"):
                # One table object per member: updates mutate it.
                rel = table("r", Schema(["k", "m"]), [(1, "one"), (2, name)])
                source = from_window(
                    StreamDef("s", Schema(["v"]), TimeWindow(10))).distinct()
                join = (source.join_relation if table is Relation
                        else source.join_nrr)
                plans[name] = join(rel, on="v", rel_on="k").build()
            config = ExecutionConfig(mode=mode)
            group = QueryGroup({name: ContinuousQuery(plan, config)
                                for name, plan in plans.items()}
                               if precompiled else None)
            if not precompiled:
                for name, plan in plans.items():
                    group.add(name, plan, config)
            streams = {}
            for name in group.names():
                sink = streams[name] = []
                group[name].subscribe(
                    lambda t, now, sink=sink: sink.append(
                        (t.values, t.ts, t.exp, t.sign)))
            group.run(events, batch=batch)
            return group, streams

        ind, ind_streams = run(True)
        sh, sh_streams = run(False)
        assert [p.consumers for p in sh.shared_producers()] == [2]
        assert sh_streams == ind_streams
        assert sh.answers() == ind.answers()


class TestLockstep:
    """Members run in lockstep: one subscriber on every member sees, per
    tuple, each event's outputs member by member, and batched, each
    chunk's outputs member by member — registered (sharing a δ) or
    precompiled alike."""

    NAMES = ["q2", "q2", "q4"]

    @pytest.mark.parametrize("batch", [None, 7])
    @pytest.mark.parametrize("precompiled", [False, True])
    def test_one_callback_on_every_member(self, precompiled, batch):
        events = trace(300)
        group = build_group(self.NAMES, Mode.UPA, precompiled=precompiled)
        assert bool(group.shared_producers()) is not precompiled
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
        sh = build_group(self.NAMES, Mode.UPA)
        ind = build_group(self.NAMES, Mode.UPA, precompiled=True)
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
        fast = build_group(["q2", "q4"], Mode.UPA)
        fast.run(events)
        slow = build_group(["q2", "q4"], Mode.UPA)
        producers = slow.shared_producers()
        for event in events:
            for producer in producers:
                producer.begin()
                producer.step(event)
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
        armed, bare = QueryGroup(), QueryGroup()
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
        group = build_group(["q1_ftp", "q1_ftp", "q1_ftp"], Mode.UPA)
        producers = group.shared_producers()
        assert len(producers) == 1
        assert producers[0].consumers == 3

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    @pytest.mark.parametrize("name", ["q1_telnet", "q2", "grp"])
    def test_whole_plan_twins_cost_one_query(self, name, mode):
        """Two members whose whole plan is one producer read its one view:
        they store nothing, and the group does exactly the work of the
        query alone, with its answer and output stream."""
        events = trace(400)
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        alone = ContinuousQuery(FACTORIES[name](gen, 30.0),
                                ExecutionConfig(mode=mode))
        group = build_group([name, name], mode)
        streams = {}
        for key, query in [("alone", alone)] + [
                (member, group[member]) for member in group.names()]:
            sink = streams[key] = []
            query.subscribe(lambda t, now, sink=sink: sink.append(
                (t.values, t.ts, t.exp, t.sign, now)))
        alone.run(events)
        result = group.run(events)
        assert result.total_touches() == alone.counters.touches > 0
        for member in group.names():
            assert isinstance(group[member].plan, SharedScan)
            assert len(group[member].compiled.view) == 0
            assert group[member].answer() == alone.answer()
            assert streams[member] == streams["alone"]
        assert streams["alone"]

    @pytest.mark.parametrize("batch", [None, 16, 64])
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    @pytest.mark.parametrize("names", [["q1_telnet"] * 2, ["q2"] * 2,
                                       ["grp"] * 2, ["q2", "q4"]])
    def test_sharing_never_costs_more_than_precompiled_members(
            self, names, mode, batch):
        """Per tuple and batched, in every mode: a batched producer
        amortizes its expiration like its members (under DIRECT every pass
        scans the list buffers, so a producer passing per event cost more
        than two batched members)."""
        events = trace(2000)
        ind = build_group(names, mode, precompiled=True)
        sh = build_group(names, mode)
        assert sh.shared_producers()
        touches = [group.run(events, batch=batch).total_touches()
                   for group in (sh, ind)]
        assert sh.answers() == ind.answers()
        assert touches[0] <= touches[1]
        assert sh.total_state_size() <= ind.total_state_size()

    @pytest.mark.parametrize("batch", [None, 16])
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    @pytest.mark.parametrize("name", ["q1_telnet", "q2", "grp"])
    def test_whole_plan_answer_read_in_a_subscriber(self, name, mode, batch):
        """A producer runs ahead of its members by at most the event (per
        tuple) or the chunk (batched) being delivered, so a whole-plan
        member's answer read inside its subscriber is the standalone
        query's after that event or chunk."""
        events = trace(400)
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        alone = ContinuousQuery(FACTORIES[name](gen, 30.0),
                                ExecutionConfig(mode=mode))
        after = []
        for event in events:
            alone.executor.process_event(event)
            after.append(alone.answer())
        group = build_group([name, name], mode)
        member = group[group.names()[0]]
        assert isinstance(member.plan, SharedScan)
        reads = []
        # Per tuple the driver counts the event being delivered; batched,
        # the events before the chunk.
        member.subscribe(lambda t, now: reads.append(
            (member.executor._events_processed, member.answer())))
        group.run(events, batch=batch)
        assert len(reads) > 10
        for count, answer in reads:
            done = min(count + batch, len(events)) if batch else count
            assert answer == after[done - 1], count

    def test_window_scans_fuse_across_different_queries(self):
        # Distinct plans, one common stateful subtree: q2 and q4 both sit
        # on δ(π_src link0).  (Bare window scans hold no state under UPA
        # and get no producer; see test_only_state_is_shared.)
        group = build_group(["q2", "q4", "q3"], Mode.UPA)
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
        group = QueryGroup()
        group.add("events", views.build(), ExecutionConfig(mode=mode))
        group.add("users", views.project("user").build(),
                  ExecutionConfig(mode=mode))
        assert len(group.shared_producers()) == expected

    def test_different_configs_never_fuse(self):
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        group = QueryGroup()
        group.add("a", query2(gen, 30.0), ExecutionConfig(mode=Mode.NT))
        group.add("b", query2(gen, 30.0), ExecutionConfig(mode=Mode.UPA))
        group.run(trace(50))
        assert not group.shared_producers()

    def test_shared_state_is_sublinear(self):
        events = trace(300)
        sh4 = build_group(["q1_ftp"] * 4, Mode.UPA)
        ind4 = build_group(["q1_ftp"] * 4, Mode.UPA, precompiled=True)
        sh4.run(events)
        ind4.run(events)
        shared_total = sh4.total_state_size()
        independent_total = ind4.total_state_size()
        assert shared_total < independent_total

    def test_explain_prints_fused_dag(self):
        group = build_group(["q1_ftp", "q1_ftp", "q3"], Mode.UPA)
        text = group.explain()
        assert "shared×" in text
        assert "Shared[" in text
        assert "fused" in text

    def test_count_windows_stay_private(self):
        from repro import CountWindow, Schema, StreamDef, from_window

        schema = Schema(["v"])
        plan = from_window(StreamDef("s0", schema, CountWindow(5))).build()
        plan2 = from_window(StreamDef("s0", schema, CountWindow(5))).build()
        group = QueryGroup()
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
        churned = build_group(["q1_ftp", "q1_ftp", "q3"], Mode.UPA)
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        churned.remove("m2_q3")
        churned.add("m2_q3", query3(gen, 30.0),
                    ExecutionConfig(mode=Mode.UPA))
        fresh = build_group(["q1_ftp", "q1_ftp", "q3"], Mode.UPA)
        churned.run(events)
        fresh.run(events)
        assert churned.answers() == fresh.answers()
        assert {n: churned[n].counters.touches for n in churned.names()} == \
            {n: fresh[n].counters.touches for n in fresh.names()}
        assert churned.shared_counters().touches == \
            fresh.shared_counters().touches

    def test_midrun_add_runs_privately_and_exactly(self):
        events = trace(400)
        group = build_group(["q1_ftp", "q1_ftp"], Mode.UPA)
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
        group = build_group(["q1_ftp", "q1_ftp", "q2"], Mode.NT)
        group.run(events[:200])
        group.remove("m1_q1_ftp")
        group.run(events[200:])
        ind = build_group(["q1_ftp", "q1_ftp", "q2"], Mode.NT,
                          precompiled=True)
        ind.run(events)
        assert dict(group["m0_q1_ftp"].answer()) == \
            dict(ind["m0_q1_ftp"].answer())
        assert dict(group["m2_q2"].answer()) == dict(ind["m2_q2"].answer())

    def test_refcounted_teardown(self):
        group = build_group(["q1_ftp", "q1_ftp", "q1_ftp"], Mode.UPA)
        group.run(trace(100))
        (producer,) = group.shared_producers()
        assert producer.consumers == 3
        group.remove("m0_q1_ftp")
        assert producer.consumers == 2
        assert group.shared_producers()  # still alive: consumers remain
        group.remove("m1_q1_ftp")
        group.remove("m2_q1_ftp")
        assert not group.shared_producers()  # last consumer freed the state

    def test_the_kept_view_leaves_with_its_last_whole_plan_reader(self):
        """q2's whole plan is the δ that q4's residual also reads: once
        both q2 members leave, the producer keeps no view, and q4 stays
        exact."""
        events = trace(400)
        group = build_group(["q2", "q2", "q4"], Mode.UPA)
        group.run(events[:200])
        (producer,) = group.shared_producers()
        assert producer._view.stored is not None
        group.remove("m0_q2")
        assert producer._view.stored is not None  # m1_q2 still reads it
        group.remove("m1_q2")
        assert producer.consumers == 1
        assert producer._view.stored is None and len(producer._view) == 0
        group.run(events[200:])
        ind = build_group(["q2", "q2", "q4"], Mode.UPA, precompiled=True)
        ind.run(events)
        assert group["m2_q4"].answer() == ind["m2_q4"].answer()

    def test_duplicate_name_rejected_pre_and_post_seal(self):
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        group = build_group(["q2"], Mode.UPA)
        with pytest.raises(KeyError):
            group.add("m0_q2", query2(gen, 30.0))
        group.run(trace(20))
        with pytest.raises(KeyError):
            group.add("m0_q2", query2(gen, 30.0))


class TestGroupMetrics:
    def test_time_per_1000_is_arrivals_based(self):
        group = build_group(["q2"], Mode.UPA)
        result = group.run(trace(200))
        assert result.tuples_arrived == 200
        assert result.time_per_1000() == pytest.approx(
            result.elapsed * 1000.0 / result.tuples_arrived)

    def test_events_processed_still_counts_everything(self):
        from repro import Tick

        events = trace(100) + [Tick(10_000.0)]
        group = build_group(["q2"], Mode.UPA)
        result = group.run(events)
        assert result.events_processed == 101
        assert result.tuples_arrived == 100

    def test_total_touches_decomposes(self):
        events = trace(200)
        group = build_group(["q1_ftp", "q1_ftp"], Mode.UPA)
        result = group.run(events)
        assert result.total_touches() == \
            sum(result.touches().values()) + result.shared_touches()
        assert result.shared_touches() > 0

    def test_empty_run(self):
        group = build_group(["q2"], Mode.UPA)
        result = group.run([])
        assert result.time_per_1000() == 0.0

    def test_batch_plumbs_through_independent_groups(self):
        events = trace(300)
        plain = build_group(["q2", "q4"], Mode.UPA, precompiled=True)
        batched = build_group(["q2", "q4"], Mode.UPA, precompiled=True)
        plain.run(events)
        batched.run(events, batch=32)
        assert plain.answers() == batched.answers()

    def test_invalid_batch_size(self):
        group = build_group(["q2"], Mode.UPA)
        with pytest.raises(ConfigError, match="batch must be >= 1"):
            group.run(trace(10), batch=0)

    def test_sharing_is_not_an_option(self):
        """Every group plans sharing; members it did not compile stay
        private beside the ones it shares."""
        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        with pytest.raises(TypeError):
            QueryGroup(shared=False)
        group = QueryGroup({"pre": ContinuousQuery(query2(gen, 30.0))})
        group.add("a", query2(gen, 30.0))
        group.add("b", query2(gen, 30.0))
        assert group.names() == ["pre", "a", "b"]
        (producer,) = group.shared_producers()
        assert producer.consumers == 2
        assert "-- pre (private) --" in group.explain()
