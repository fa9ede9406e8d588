"""Tests for strategy compilation: buffer/view choices and validation."""

import pytest

from repro import (
    AggregateSpec,
    Counters,
    DupElim,
    ExecutionConfig,
    GroupBy,
    Join,
    Mode,
    Negation,
    NRR,
    NRRJoin,
    PlanError,
    Schema,
    Select,
    StreamDef,
    TimeWindow,
    WindowScan,
    attr_equals,
    compile_plan,
)
from repro.buffers import FifoBuffer, HashBuffer, ListBuffer, PartitionedBuffer
from repro.engine.strategies import STR_NEGATIVE, STR_PARTITIONED
from repro.engine.views import AppendView, BufferView, GroupView
from repro.operators import (
    DupElimDeltaOp,
    DupElimStandardOp,
    JoinOp,
    NegationOp,
    WindowOp,
)

V = Schema(["v"])


def scan(name="s0", window=10):
    return WindowScan(StreamDef(name, V, TimeWindow(window)))


def join_plan():
    return Join(scan("s0"), scan("s1"), "v", "v")


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
        plan = Join(join_plan(), scan("s2"), "l_v", "v")
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA,
                                                      n_partitions=17))
        upper = compiled.op_for(plan)
        assert upper.buffers[0].n_partitions == 17


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
        compiled = compile_plan(
            plan, ExecutionConfig(mode=Mode.UPA, str_storage=STR_NEGATIVE))
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

    def test_hybrid_materializes_only_nt_region_windows(self):
        # (s0 - s1) join s2: under the negative scheme, s2's window (above
        # the negation) materializes, s0/s1 (below) do not.
        plan = Join(Negation(scan("s0"), scan("s1"), "v"), scan("s2"),
                    "v", "v")
        compiled = compile_plan(
            plan, ExecutionConfig(mode=Mode.UPA, str_storage=STR_NEGATIVE))
        by_name = {op.name: op for op in compiled.ops.values()
                   if isinstance(op, WindowOp)}
        assert by_name["s2"] in compiled.expire_ops
        assert by_name["s0"] not in compiled.expire_ops
        assert by_name["s1"] not in compiled.expire_ops


class TestViewChoices:
    def test_monotonic_output_append_view(self):
        plan = Select(WindowScan(StreamDef("s", V, None)),
                      attr_equals("v", 1))
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        assert isinstance(compiled.view, AppendView)

    def test_groupby_root_gets_group_view(self):
        plan = GroupBy(scan(), ["v"], [AggregateSpec("count", None, "n")])
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA))
        assert isinstance(compiled.view, GroupView)

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
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.UPA))
        assert isinstance(compiled.view.buffer, PartitionedBuffer)

    def test_upa_str_partitioned_vs_negative_views(self):
        plan = Negation(scan("s0"), scan("s1"), "v")
        partitioned = compile_plan(
            plan, ExecutionConfig(mode=Mode.UPA,
                                  str_storage=STR_PARTITIONED))
        assert isinstance(partitioned.view.buffer, PartitionedBuffer)
        hybrid = compile_plan(
            plan, ExecutionConfig(mode=Mode.UPA, str_storage=STR_NEGATIVE))
        assert isinstance(hybrid.view.buffer, HashBuffer)
        assert not hybrid.view.purges

    @pytest.mark.parametrize("checked", [False, True])
    def test_only_hash_views_are_indexed(self, checked):
        """The timestamp-purged views delete by ``exp`` and never look a
        result up by key; only the NT / STR-negative hash view reads its
        ``(values, exp)`` index (with or without the sanitizer's proxy)."""
        negation = Negation(scan("s0"), scan("s1"), "v")
        wks = Select(scan(), attr_equals("v", 1))

        def view_of(plan, **config):
            return compile_plan(
                plan, ExecutionConfig(checked=checked, **config)).view.buffer

        unindexed = [
            (join_plan(), dict(mode=Mode.DIRECT), ListBuffer),
            (wks, dict(mode=Mode.UPA), FifoBuffer),
            (join_plan(), dict(mode=Mode.UPA), PartitionedBuffer),
            (negation, dict(mode=Mode.UPA, str_storage=STR_PARTITIONED),
             PartitionedBuffer),
        ]
        for plan, config, kind in unindexed:
            buffer = view_of(plan, **config)
            assert isinstance(getattr(buffer, "inner", buffer), kind)
            assert buffer.has_index is False, kind
        for plan, config in [
            (join_plan(), dict(mode=Mode.NT)),
            (negation, dict(mode=Mode.UPA, str_storage=STR_NEGATIVE)),
        ]:
            buffer = view_of(plan, **config)
            assert isinstance(getattr(buffer, "inner", buffer), HashBuffer)
            assert buffer.has_index is True

    def test_auto_str_storage_uses_premature_frequency(self):
        cfg_rare = ExecutionConfig(mode=Mode.UPA, premature_frequency=0.05)
        assert cfg_rare.resolved_str_storage() == STR_PARTITIONED
        cfg_often = ExecutionConfig(mode=Mode.UPA, premature_frequency=0.8)
        assert cfg_often.resolved_str_storage() == STR_NEGATIVE


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

    def test_unknown_str_storage_rejected(self):
        plan = join_plan()
        with pytest.raises(PlanError, match="str_storage"):
            compile_plan(plan, ExecutionConfig(mode=Mode.UPA,
                                               str_storage="bogus"))


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
