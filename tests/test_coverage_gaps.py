"""Targeted tests for less-travelled code paths across the library."""

from collections import Counter

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    Counters,
    DupElim,
    ExecutionConfig,
    Intersect,
    Join,
    Mode,
    Negation,
    NRR,
    NRRJoin,
    Project,
    ReferenceEvaluator,
    Relation,
    RelationJoin,
    RelationUpdate,
    Schema,
    Select,
    StreamDef,
    Tick,
    TimeWindow,
    Union,
    WindowScan,
    WorkloadError,
    attr_equals,
    from_window,
)
from repro.core.cost import Catalog, CostModel
from repro.core.optimizer import Optimizer

V = Schema(["v"])


def scan(name, window=10):
    return WindowScan(StreamDef(name, V, TimeWindow(window)))


class TestCountersPlumbing:
    def test_snapshot_and_reset(self):
        counters = Counters()
        counters.touches += 5
        snap = counters.snapshot()
        assert snap["touches"] == 5
        counters.reset()
        assert counters.touches == 0
        assert "touches=0" in repr(counters)


class TestCostModelCorners:
    def test_union_stats_add(self):
        plan = Union(scan("a"), scan("b"))
        cost = CostModel().estimate(plan)
        stats = cost.stats_of(plan)
        assert stats.rate == 2.0
        assert stats.size == 20.0

    def test_intersect_priced_like_join(self):
        plan = Intersect(scan("a"), scan("b"))
        cost = CostModel().estimate(plan)
        assert cost.cost_of(plan) == pytest.approx(1 * 10 + 1 * 10)

    def test_nrr_join_stats_scale_with_fan_out(self):
        nrr = NRR("n", Schema(["k", "m"]))
        for i in range(10):
            nrr.insert_at(0, (i % 5, f"m{i}"))  # fan-out 2 per key
        plan = NRRJoin(scan("a"), nrr, "v", "k")
        model = CostModel(Catalog(distinct_counts={("n", "k"): 5}))
        stats = model.estimate(plan).stats_of(plan)
        assert stats.rate == pytest.approx(2.0)  # 1.0 input rate × fan-out 2

    def test_relation_join_cost_positive(self):
        rel = Relation("r", Schema(["k", "m"]), [(1, "a")])
        plan = RelationJoin(scan("a"), rel, "v", "k")
        cost = CostModel().estimate(plan)
        assert cost.cost_of(plan) > 0

    def test_infinite_stream_size(self):
        plan = WindowScan(StreamDef("inf", V, None))
        stats = CostModel().estimate(plan).stats_of(plan)
        assert stats.size == float("inf")


class TestOptimizerCorners:
    def test_join_swap_not_generated(self):
        """Swapping join inputs is cost-neutral under the symmetric join
        cost formula, so the enumerator never generates it."""
        plan = Join(scan("a"), scan("b"), "v", "v")
        for candidate in Optimizer().candidates(plan):
            for node in candidate.walk():
                if isinstance(node, Join) and hasattr(node.left, "stream"):
                    assert node.left.stream.name == "a"

    def test_pull_up_with_negation_on_right_join_input(self):
        # The left input holds one tuple per key, so the pull-up keeps
        # Equation 1's multiplicities.
        neg = Negation(scan("b"), scan("c"), "v")
        plan = Join(DupElim(Project(scan("a"), ["v"])), neg, "v", "v")
        pulled = [p for p in Optimizer().candidates(plan)
                  if isinstance(p, Negation) and isinstance(p.left, Join)]
        assert pulled

    def test_optimize_plain_leaf(self):
        best = Optimizer().optimize(scan("a"))
        assert best.plan.describe().startswith("Window")


class TestRelationJoinUnderNt:
    def test_nt_mode_supports_retroactive_relations(self):
        rel = Relation("r", Schema(["k", "m"]), [(1, "one")])
        plan = from_window(
            StreamDef("s", V, TimeWindow(10))
        ).join_relation(rel, on="v", rel_on="k").build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.NT))
        ex = query.executor
        ex.process_event(Arrival(1, "s", (1,)))
        assert sum(query.answer().values()) == 1
        ex.process_event(RelationUpdate(2, "r", "delete", (1, "one")))
        assert sum(query.answer().values()) == 0
        # Window expiry arrives as a negative tuple from the NT window.
        ex.process_event(RelationUpdate(3, "r", "insert", (1, "one")))
        ex.process_event(Tick(20))
        assert sum(query.answer().values()) == 0


class TestOracleCorners:
    def test_observe_standalone_applies_relation_updates(self):
        nrr = NRR("n", Schema(["k", "m"]))
        oracle = ReferenceEvaluator()
        oracle.observe_standalone(
            RelationUpdate(1, "n", "insert", (1, "x")), {"n": nrr})
        assert len(nrr) == 1
        oracle.observe_standalone(
            RelationUpdate(2, "n", "delete", (1, "x")), {"n": nrr})
        assert len(nrr) == 0

    def test_observe_standalone_plain_relation(self):
        rel = Relation("r", Schema(["k", "m"]))
        oracle = ReferenceEvaluator()
        oracle.observe_standalone(
            RelationUpdate(1, "r", "insert", (1, "x")), {"r": rel})
        assert len(rel) == 1

    def test_nrr_join_over_union_and_select(self):
        nrr = NRR("n", Schema(["k", "m"]), [(0, "zero")])
        union = Union(scan("a"), scan("b"))
        filtered = Select(union, attr_equals("v", 0))
        plan = NRRJoin(filtered, nrr, "v", "k")
        oracle = ReferenceEvaluator()
        oracle.observe(Arrival(1, "a", (0,)))
        oracle.observe(Arrival(2, "b", (0,)))
        oracle.observe(Arrival(3, "a", (1,)))
        assert oracle.evaluate(plan, 4) == Counter({(0, 0, "zero"): 2})

    def test_nrr_join_over_stateful_subplan_rejected(self):
        nrr = NRR("n", Schema(["k", "m"]))
        inner = Join(scan("a"), scan("b"), "v", "v")
        plan = NRRJoin(inner, nrr, "l_v", "k")
        oracle = ReferenceEvaluator()
        from repro import ExecutionError
        with pytest.raises(ExecutionError, match="stateless"):
            oracle.evaluate(plan, 1)

    def test_project_under_nrr_join(self):
        two = Schema(["v", "w"])
        leaf = WindowScan(StreamDef("s", two, TimeWindow(10)))
        nrr = NRR("n", Schema(["k", "m"]), [(1, "one")])
        plan = NRRJoin(Project(leaf, ["v"]), nrr, "v", "k")
        oracle = ReferenceEvaluator()
        oracle.observe(Arrival(1, "s", (1, "junk")))
        assert oracle.evaluate(plan, 2) == Counter({(1, 1, "one"): 1})


class TestTraceIoRobustness:
    def test_malformed_number_reported_with_location(self, tmp_path):
        from repro.workloads import read_trace
        path = tmp_path / "bad.tsv"
        path.write_text("1.0\tlink0\tnot_a_number\tftp\t100\ta\tb\n")
        with pytest.raises(WorkloadError, match="bad.tsv:1"):
            list(read_trace(path))


class TestMultiAttributeNegation:
    """Equation 1 over multi-attribute tuples: counts are per negation-
    attribute value; which left tuples fill the quota is a free choice, but
    the *projection* onto the negation attribute is fully determined."""

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA],
                             ids=["nt-auto", "upa-partitioned"])
    def test_per_value_counts(self, mode):
        two = Schema(["k", "payload"])
        a = StreamDef("a", two, TimeWindow(10))
        b = StreamDef("b", two, TimeWindow(10))
        plan = from_window(a).minus(from_window(b), on="k").build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
        ex = query.executor
        ex.process_event(Arrival(1, "a", ("x", "p1")))
        ex.process_event(Arrival(2, "a", ("x", "p2")))
        ex.process_event(Arrival(3, "a", ("y", "p3")))
        ex.process_event(Arrival(4, "b", ("x", "q1")))
        projected = Counter(values[0] for values in
                            query.answer().elements())
        assert projected == Counter({"x": 1, "y": 1})
        # All answer tuples must come from the left window's contents.
        left_payloads = {"p1", "p2", "p3"}
        assert all(values[1] in left_payloads
                   for values in query.answer())
