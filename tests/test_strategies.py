"""Tests for strategy compilation: buffer/view choices and validation."""

import pytest

from repro import (
    AggregateSpec,
    Arrival,
    ContinuousQuery,
    Counters,
    DupElim,
    ExecutionConfig,
    GroupBy,
    Intersect,
    Join,
    Mode,
    Negation,
    NRR,
    NRRJoin,
    PlanError,
    QueryGroup,
    Relation,
    RelationJoin,
    Schema,
    Select,
    StreamDef,
    TimeWindow,
    Union,
    WindowScan,
    attr_equals,
    compile_plan,
)
from repro.analysis.bounds import attach_certificate
from repro.buffers import FifoBuffer, HashBuffer, ListBuffer, PartitionedBuffer
from repro.engine.views import (AppendView, BufferView, DeltaStateView,
                                GroupStateView, JoinStateView, StateView)
from repro.operators import (
    DupElimDeltaOp,
    DupElimStandardOp,
    NegationOp,
    WindowOp,
)

V = Schema(["v"])


def scan(name="s0", window=10):
    return WindowScan(StreamDef(name, V, TimeWindow(window)))


def join_plan():
    return Join(scan("s0"), scan("s1"), "v", "v")


def delta_join_plan():
    """δ ⋈ δ on the key: both inputs unique on the join attribute."""
    return Join(DupElim(scan("s0")), DupElim(scan("s1")), "v", "v")


class TestBufferChoices:
    def test_nt_uses_hash_buffers(self):
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.NT))
        join_op = compiled.op_for(compiled.root)
        assert all(isinstance(b, HashBuffer) for b in join_op.buffers)

    def test_direct_uses_list_buffers(self):
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.DIRECT))
        join_op = compiled.op_for(compiled.root)
        assert all(isinstance(b, ListBuffer) for b in join_op.buffers)

    def test_upa_uses_fifo_for_wks_input(self):
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.UPA))
        join_op = compiled.op_for(compiled.root)
        assert all(isinstance(b, FifoBuffer) for b in join_op.buffers)

    def test_upa_uses_partitioned_for_wk_input(self):
        # Join above a join: the upper join's left input is WK.
        plan = Join(join_plan(), scan("s2"), "l_v", "v")
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        upper = compiled.op_for(plan)
        assert isinstance(upper.buffers[0], PartitionedBuffer)
        assert isinstance(upper.buffers[1], FifoBuffer)

    def test_partition_count_honoured(self):
        plan = Join(join_plan(), scan("s2", window=30), "l_v", "v")
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA,
                                                      n_partitions=17))
        upper = compiled.op_for(plan)
        assert upper.buffers[0].n_partitions == 17
        # The ring covers the plan's largest window span (Figure 7), not
        # its own input's: a mis-sized ring purges exactly but wraps.
        assert upper.buffers[0].span == compiled.max_span == 30


class TestDupElimChoice:
    def test_upa_picks_delta_for_wks_input(self):
        compiled = compile_plan(DupElim(scan()),
                                ExecutionConfig(mode=Mode.UPA))
        assert isinstance(compiled.op_for(compiled.root), DupElimDeltaOp)

    def test_nt_and_direct_pick_standard(self):
        for mode in (Mode.NT, Mode.DIRECT):
            compiled = compile_plan(DupElim(scan()),
                                    ExecutionConfig(mode=mode))
            assert isinstance(compiled.op_for(compiled.root),
                              DupElimStandardOp)

    def test_upa_str_input_falls_back_to_standard(self):
        plan = DupElim(Negation(scan("s0"), scan("s1"), "v"))
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        assert isinstance(compiled.op_for(plan), DupElimStandardOp)


class TestWindowMaterialization:
    def test_nt_materializes_windows(self):
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.NT))
        leaves = [op for op in compiled.ops.values()
                  if isinstance(op, WindowOp)]
        assert leaves and all(op in compiled.expire_ops for op in leaves)

    def test_direct_and_upa_do_not(self):
        for mode in (Mode.DIRECT, Mode.UPA):
            compiled = compile_plan(join_plan(), ExecutionConfig(mode=mode))
            leaves = [op for op in compiled.ops.values()
                      if isinstance(op, WindowOp)]
            assert all(op not in compiled.expire_ops for op in leaves)

    def test_upa_materializes_no_window_around_a_negation(self):
        # (s0 - s1) join s2: neither the windows below the negation nor
        # s2's beside the join above it emit negatives under UPA.
        plan = Join(Negation(scan("s0"), scan("s1"), "v"), scan("s2"),
                    "v", "v")
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        leaves = [op for op in compiled.ops.values()
                  if isinstance(op, WindowOp)]
        assert len(leaves) == 3
        assert all(op._store is None and op not in compiled.expire_ops
                   for op in leaves)


class TestViewChoices:
    def test_monotonic_output_append_view(self):
        plan = Select(WindowScan(StreamDef("s", V, None)),
                      attr_equals("v", 1))
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        assert isinstance(compiled.view, AppendView)

    def test_groupby_root_gets_group_view(self):
        plan = GroupBy(scan(), ["v"], [AggregateSpec("count", None, "n")])
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        assert isinstance(compiled.view, GroupStateView)
        assert len(compiled.view) == 0  # the group table is the view

    def test_nt_view_is_non_purging_hash(self):
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.NT))
        assert isinstance(compiled.view, BufferView)
        assert isinstance(compiled.view.buffer, HashBuffer)
        assert not compiled.view.purges

    def test_direct_view_is_purging_list(self):
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.DIRECT))
        assert isinstance(compiled.view.buffer, ListBuffer)
        assert compiled.view.purges

    def test_upa_wks_output_fifo_view(self):
        plan = Select(scan(), attr_equals("v", 1))
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        assert isinstance(compiled.view.buffer, FifoBuffer)

    def test_upa_wk_output_partitioned_view(self):
        for plan in (DupElim(scan()), delta_join_plan()):
            compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
            assert isinstance(compiled.view.buffer, PartitionedBuffer)

    #: The whole rule: which root gets which view, and what explain says.
    #: ``None`` as the buffer kind means the join-state view, a view class
    #: one of the other state views (no storage either).
    RULES = [
        ("bag ⋈ bag", join_plan, dict(mode=Mode.UPA), None,
         "join state (UPA, WK root, bag inputs)"),
        ("δ ⋈ bag", lambda: Join(DupElim(scan("s0")), scan("s1"), "v", "v"),
         dict(mode=Mode.UPA), None, "join state (UPA, WK root, bag inputs)"),
        ("δ ⋈ δ on part of the schema",
         lambda: Join(
             DupElim(WindowScan(StreamDef("s0", Schema(["v", "w"]),
                                          TimeWindow(10)))),
             DupElim(scan("s1")), "v", "v"),
         dict(mode=Mode.UPA), None, "join state (UPA, WK root, bag inputs)"),
        ("join over a join", lambda: Join(join_plan(), scan("s2"), "l_v", "v"),
         dict(mode=Mode.UPA), None, "join state (UPA, WK root, bag inputs)"),
        ("δ ⋈ δ on the key", delta_join_plan, dict(mode=Mode.UPA),
         PartitionedBuffer, "partitioned (key-unique inputs)"),
        ("join over an STR input",
         lambda: Join(Negation(scan("s0"), scan("s1"), "v"), scan("s2"),
                      "v", "v"),
         dict(mode=Mode.UPA), PartitionedBuffer, "partitioned (STR root)"),
        ("intersect", lambda: Intersect(scan("s0"), scan("s1")),
         dict(mode=Mode.UPA), PartitionedBuffer, "partitioned (WK root)"),
        ("R-join",
         lambda: RelationJoin(scan(), Relation("r", Schema(["k"]), [(1,)]),
                              "v", "k"),
         dict(mode=Mode.UPA), PartitionedBuffer, "partitioned (STR root)"),
        ("NRR-join",
         lambda: NRRJoin(scan(), NRR("n", Schema(["k"]), [(1,)]), "v", "k"),
         dict(mode=Mode.UPA), FifoBuffer, "fifo (WKS root)"),
        ("group-by", lambda: GroupBy(
            scan(), ["v"], [AggregateSpec("count", None, "n")]),
         dict(mode=Mode.DIRECT), GroupStateView,
         "group state (group-by root, rows finished on read)"),
        ("δ", lambda: DupElim(scan()), dict(mode=Mode.UPA), DeltaStateView,
         "δ output state (UPA, WK root, the live representatives)"),
        ("δ over an STR input",
         lambda: DupElim(Negation(scan("s0"), scan("s1"), "v")),
         dict(mode=Mode.UPA), PartitionedBuffer, "partitioned (STR root)"),
        ("DISTINCT, DIRECT", lambda: DupElim(scan()),
         dict(mode=Mode.DIRECT), ListBuffer, "list (DIRECT)"),
        ("bag ⋈ bag, DIRECT", join_plan, dict(mode=Mode.DIRECT), ListBuffer,
         "list (DIRECT)"),
        ("bag ⋈ bag, NT", join_plan, dict(mode=Mode.NT), HashBuffer,
         "hash (negatives delete by key)"),
    ]

    @pytest.mark.parametrize("label,plan,config,kind,note", RULES,
                             ids=[rule[0] for rule in RULES])
    def test_view_rule_table(self, label, plan, config, kind, note):
        query = ContinuousQuery(plan(), ExecutionConfig(**config))
        view = query.compiled.view
        assert f"\n-- view: {note}\n" in query.explain()
        if kind is None or issubclass(kind, StateView):
            assert type(view) is (kind or JoinStateView)
            assert len(view) == 0
            assert not any(entry.label == "result-view" for entry in
                           attach_certificate(query.compiled).entries)
        else:
            assert isinstance(view, BufferView)
            assert isinstance(view.buffer, kind)

    @pytest.mark.parametrize("batch", [None, 4])
    def test_join_state_view_stores_nothing(self, batch):
        """A run over a bag ⋈ bag root: the answer is read off the join's
        state, ``len(view)`` stays 0, and the certificate has no view
        entry."""
        query = ContinuousQuery(join_plan(), ExecutionConfig(mode=Mode.UPA))
        events = [Arrival(float(ts), f"s{ts % 2}", (ts % 3,))
                  for ts in range(1, 40)]
        result = query.run(events, batch=batch)
        assert len(query.compiled.view) == 0
        assert sum(query.answer().values()) > 0
        assert result.counters.results_produced > 0
        assert result.certificate is query.compiled.certificate
        assert not any(entry.label == "result-view"
                       for entry in result.certificate.entries)

    def test_upa_str_view_is_partitioned(self):
        plan = Negation(scan("s0"), scan("s1"), "v")
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        assert isinstance(compiled.view.buffer, PartitionedBuffer)
        assert compiled.view.purges

    def test_only_hash_views_are_indexed(self):
        """The timestamp-purged views delete by ``exp`` and never look a
        result up by key; only the NT hash view reads its
        ``(values, exp)`` index.
        Likewise group-by's input, which is scanned, popped, never probed:
        indexed only where the hash table *is* the index."""
        negation = Negation(scan("s0"), scan("s1"), "v")
        wks = Select(scan(), attr_equals("v", 1))
        grouped = GroupBy(scan(), ["v"], [AggregateSpec("count", None, "n")])

        def view_of(plan, **config):
            compiled = compile_plan(plan, ExecutionConfig(**config))
            if plan is grouped:
                ((_label, buffer),) = compiled.op_for(plan).state_buffers()
                return buffer
            return compiled.view.buffer

        unindexed = [
            (join_plan(), dict(mode=Mode.DIRECT), ListBuffer),
            (wks, dict(mode=Mode.UPA), FifoBuffer),
            (delta_join_plan(), dict(mode=Mode.UPA), PartitionedBuffer),
            (negation, dict(mode=Mode.UPA), PartitionedBuffer),
            (grouped, dict(mode=Mode.UPA), FifoBuffer),
            (grouped, dict(mode=Mode.DIRECT), ListBuffer),
        ]
        for plan, config, kind in unindexed:
            buffer = view_of(plan, **config)
            assert isinstance(buffer, kind)
            assert buffer.has_index is False, kind
        for plan, config in [
            (join_plan(), dict(mode=Mode.NT)),
            (negation, dict(mode=Mode.NT)),
            (grouped, dict(mode=Mode.NT)),
        ]:
            buffer = view_of(plan, **config)
            assert isinstance(buffer, HashBuffer)
            assert buffer.has_index is True


class TestNegationWiring:
    def test_nt_negation_relies_on_negatives(self):
        plan = Negation(scan("s0"), scan("s1"), "v")
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.NT))
        op = compiled.op_for(plan)
        assert isinstance(op, NegationOp)
        assert op not in compiled.expire_ops

    def test_upa_negation_self_expires(self):
        plan = Negation(scan("s0"), scan("s1"), "v")
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        assert compiled.op_for(plan) in compiled.expire_ops


class TestValidation:
    def test_direct_rejects_negation(self):
        plan = Negation(scan("s0"), scan("s1"), "v")
        with pytest.raises(PlanError, match="direct approach"):
            compile_plan(plan, ExecutionConfig(mode=Mode.DIRECT))

    def test_nt_rejects_nrr_join(self):
        nrr = NRR("n", Schema(["k", "w"]))
        plan = NRRJoin(scan(), nrr, "v", "k")
        with pytest.raises(PlanError, match="NRR"):
            compile_plan(plan, ExecutionConfig(mode=Mode.NT))

    def test_groupby_must_be_root(self):
        gb = GroupBy(scan(), ["v"], [AggregateSpec("count", None, "n")])
        plan = Select(gb, attr_equals("v", 1))
        with pytest.raises(PlanError, match="root"):
            compile_plan(plan, ExecutionConfig(mode=Mode.UPA))

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("combine", [
        lambda s: Intersect(s, s),
        lambda s: Union(s, s),
        lambda s: Join(s, s, "v", "v"),
    ], ids=["intersect", "union", "join"])
    def test_reused_node_is_a_plan_error(self, combine, mode):
        """One node object under two parents names itself, in every mode."""
        with pytest.raises(PlanError, match="appears twice"):
            ContinuousQuery(combine(scan()), ExecutionConfig(mode=mode))

    def test_group_member_reusing_a_node_is_a_plan_error(self):
        s = scan()
        group = QueryGroup()
        group.add("q", Intersect(s, s), ExecutionConfig(mode=Mode.UPA))
        with pytest.raises(PlanError, match="appears twice"):
            group.run(iter([Arrival(0, "s0", (1,))]))

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("combine", [
        lambda s: Intersect(s, s),
        lambda s: Union(s, s),
    ], ids=["intersect", "union"])
    def test_group_member_reuse_in_every_mode(self, combine, mode):
        """A group member gets a single query's verdict: under NT a
        sharing cut at the reused window must not hide the reuse."""
        group = QueryGroup()
        group.add("q", combine(scan()), ExecutionConfig(mode=mode))
        with pytest.raises(PlanError, match="appears twice"):
            group.run(iter([Arrival(0, "s0", (1,))]))


class TestRouting:
    def test_routes_lead_to_root(self):
        plan = Join(Select(scan("s0"), attr_equals("v", 1)), scan("s1"),
                    "v", "v")
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        leaf = compiled.leaf_bindings["s0"][0]
        route = compiled.route_of(leaf)
        assert [type(op).__name__ for op, _ in route] == ["SelectOp", "JoinOp"]
        assert route[-1][0] is compiled.op_for(plan)
        # s0 feeds the join's left (slot 0) via the select.
        assert route[0][1] == 0 and route[1][1] == 0
        # s1 feeds the join's right slot.
        s1_route = compiled.route_of(compiled.leaf_bindings["s1"][0])
        assert s1_route == [(compiled.op_for(plan), 1)]

    def test_counters_shared_across_operators(self):
        counters = Counters()
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.UPA),
                                counters)
        for op in compiled.ops.values():
            assert op.counters is counters
