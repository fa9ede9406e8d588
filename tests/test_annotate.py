"""Tests for plan annotation — the five propagation rules over real plans."""

import random

import pytest
from conftest import PAPER_QUERIES, all_subclasses
from test_fuzz import random_plan

from repro import (
    AggregateSpec,
    CountWindow,
    DupElim,
    GroupBy,
    Intersect,
    Join,
    MONOTONIC,
    Negation,
    NRR,
    NRRJoin,
    PlanError,
    Project,
    Relation,
    RelationJoin,
    STR,
    Schema,
    Select,
    StreamDef,
    TimeWindow,
    Union,
    WK,
    WKS,
    WindowScan,
    annotate,
    attr_equals,
    explain,
)
from repro.core.plan import LogicalNode, Rename, SharedScan
from repro.engine.multi import QueryGroup
from repro.testing import reference_patterns

AB = Schema(["a", "b"])


def scan(name="s", window=TimeWindow(10)):
    return WindowScan(StreamDef(name, AB, window))


def infinite(name="inf"):
    return WindowScan(StreamDef(name, AB, None))


class TestLeafPatterns:
    def test_window_is_wks(self):
        a = annotate(scan())
        assert a.output_pattern is WKS

    def test_infinite_stream_is_monotonic(self):
        a = annotate(infinite())
        assert a.output_pattern is MONOTONIC


class TestRulePropagation:
    def test_rule1_select_project_passthrough(self):
        plan = Project(Select(scan(), attr_equals("a", 1)), ["a"])
        a = annotate(plan)
        assert a.output_pattern is WKS

    def test_rule1_select_over_infinite_stays_monotonic(self):
        a = annotate(Select(infinite(), attr_equals("a", 1)))
        assert a.output_pattern is MONOTONIC

    def test_rule2_union_takes_more_complex(self):
        # A WK side: join of disjoint schemas, projected back to (a, b).
        other = WindowScan(StreamDef("x", Schema(["c", "d"]), TimeWindow(10)))
        wk_side = Project(Join(scan("s1"), other, "a", "c"), ["a", "b"])
        wks_side = scan("s2")
        assert annotate(Union(wks_side, wk_side)).output_pattern is WK
        assert annotate(Union(wks_side, scan("s3"))).output_pattern is WKS

    def test_rule3_join_of_windows_is_wk(self):
        a = annotate(Join(scan("s1"), scan("s2"), "a", "a"))
        assert a.output_pattern is WK

    def test_rule3_dupelim_is_wk(self):
        assert annotate(DupElim(scan())).output_pattern is WK

    def test_rule3_str_input_dominates(self):
        neg = Negation(scan("s1"), scan("s2"), "a")
        join = Join(neg, scan("s3"), "a", "a")
        a = annotate(join)
        assert a.pattern_of(neg) is STR
        assert a.output_pattern is STR

    def test_rule4_groupby_always_wk_even_over_str(self):
        neg = Negation(scan("s1"), scan("s2"), "a")
        gb = GroupBy(neg, ["a"], [AggregateSpec("count", None, "n")])
        a = annotate(gb)
        assert a.pattern_of(neg) is STR
        assert a.output_pattern is WK

    def test_rule5_negation_always_str(self):
        a = annotate(Negation(scan("s1"), scan("s2"), "a"))
        assert a.output_pattern is STR

    def test_rule5_relation_join_always_str(self):
        rel = Relation("r", Schema(["k", "v"]))
        a = annotate(RelationJoin(scan(), rel, "a", "k"))
        assert a.output_pattern is STR

    def test_nrr_join_passthrough(self):
        nrr = NRR("n", Schema(["k", "v"]))
        assert annotate(NRRJoin(scan(), nrr, "a", "k")).output_pattern is WKS
        assert annotate(
            NRRJoin(infinite(), nrr, "a", "k")).output_pattern is MONOTONIC


class TestConstraints:
    def test_nrr_join_over_str_input_rejected(self):
        nrr = NRR("n", Schema(["k", "v"]))
        neg = Negation(scan("s1"), scan("s2"), "a")
        # A shared cut cannot hide the negation: annotation reads through
        # it to its source.
        for child in (neg, SharedScan(neg, "hides-negation")):
            with pytest.raises(PlanError, match="NRR-join"):
                annotate(NRRJoin(child, nrr, "a", "k"))

    def test_shared_scan_declares_no_pattern_or_lag(self):
        """A cut holds only its source, so nothing it declares can
        disagree with that source."""
        with pytest.raises(TypeError, match="pattern"):
            SharedScan(scan(), "fp", pattern=WKS)
        with pytest.raises(TypeError, match="lag"):
            SharedScan(scan(), "fp", lag=10.0)

    def test_relation_join_over_str_input_rejected(self):
        rel = Relation("r", Schema(["k", "v"]))
        neg = Negation(scan("s1"), scan("s2"), "a")
        with pytest.raises(PlanError, match="R-join"):
            annotate(RelationJoin(neg, rel, "a", "k"))


class TestAnnotatedPlan:
    def test_contains_strict(self):
        assert not annotate(Join(scan("s1"), scan("s2"), "a", "a")
                            ).contains_strict()
        assert annotate(Negation(scan("s1"), scan("s2"), "a")
                        ).contains_strict()

    def test_every_node_annotated(self):
        plan = Join(Select(scan("s1"), attr_equals("a", 1)), scan("s2"),
                    "a", "a")
        a = annotate(plan)
        for node in plan.walk():
            assert a.pattern_of(node) is not None

    def test_explain_contains_patterns_and_operators(self):
        plan = Join(Select(scan("s1"), attr_equals("a", 1)), scan("s2"),
                    "a", "a")
        text = explain(plan)
        assert "WKS" in text and "WK" in text
        assert "Select" in text and "Join" in text
        # Indentation reflects depth.
        lines = text.splitlines()
        assert lines[0].startswith("Join")
        assert lines[1].startswith("  ")


#: How many plans of the fuzz grammar the oracle checks: its mixed window
#: sizes are what exercise Rule 2's lifetime-offset refinement.
GENERATED_PLANS = 400


def _assert_agrees(plan) -> int:
    """``annotate`` gives every node of ``plan`` the pattern Section 5.2's
    rules, written out again in ``reference_patterns``, give it; returns
    the number of nodes checked."""
    annotated = annotate(plan)
    reference = reference_patterns(plan)
    nodes = list(plan.walk())
    for node in nodes:
        assert annotated.pattern_of(node) is reference[id(node)], (
            f"{node.describe()} is annotated {annotated.pattern_of(node)}, "
            f"the reference derives {reference[id(node)]}\n{explain(plan)}")
    return len(nodes)


def _operator_catalogue():
    """Plans that between them hold every operator, over windows of
    different sizes, an infinite stream, a count window and shared
    cuts."""
    neg = Negation(scan("s1"), scan("s2"), "a")
    count_n = [AggregateSpec("count", None, "n")]
    rel = Relation("r", Schema(["k", "v"]))
    nrr = NRR("n", Schema(["k", "v"]))
    same = Union(scan("s1"), scan("s2"))
    return [
        GroupBy(neg, ["a"], count_n),
        GroupBy(scan(), ["a"], count_n),
        NRRJoin(infinite(), nrr, "a", "k"),
        NRRJoin(Select(scan(), attr_equals("a", 1)), nrr, "a", "k"),
        RelationJoin(scan(), rel, "a", "k"),
        Union(infinite(), scan()),
        Union(Rename(scan("s1"), ["a", "b"]), scan("s2", TimeWindow(20))),
        Project(Union(scan("s1"), scan("s2")), ["a"]),
        Intersect(scan("s1"), scan("s2", TimeWindow(20))),
        DupElim(neg),
        Select(DupElim(Union(scan("s1"), scan("s2", TimeWindow(5)))),
               attr_equals("a", 1)),
        Union(scan("c", CountWindow(5)), scan("d", CountWindow(5))),
        Union(SharedScan(same, "same"), scan("s3")),
        Union(SharedScan(same, "same"), scan("s3", TimeWindow(20))),
        GroupBy(SharedScan(neg, "neg"), ["a"], count_n),
        Join(SharedScan(DupElim(scan("s1")), "d"), scan("s2"), "a", "a"),
    ]


class TestReferenceOracle:
    """The annotator against a second implementation of its rules, on
    every operator, the paper's queries, generated plans, and the residual
    plans (with shared cuts) of groups built from both."""

    def test_every_operator(self):
        """A new operator needs a rule in the reference and a plan here."""
        seen = set()
        for plan in _operator_catalogue():
            _assert_agrees(plan)
            seen.update(type(node) for node in plan.walk())
        assert seen == {cls for cls in all_subclasses(LogicalNode)
                        if cls.__module__.startswith("repro.")}

    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_queries(self, name):
        assert _assert_agrees(PAPER_QUERIES[name]()) > 1

    def test_generated_plans(self):
        patterns = set()
        for seed in range(GENERATED_PLANS):
            plan = random_plan(random.Random(seed))
            _assert_agrees(plan)
            patterns.update(reference_patterns(plan).values())
        assert patterns == {WKS, WK, STR}

    def test_shared_group_residual_plans(self):
        """Each generated plan grouped with its root's input subtrees,
        and the paper's queries in one group: every member's residual plan,
        cuts included, agrees node by node."""
        groups = [[PAPER_QUERIES[name]() for name in sorted(PAPER_QUERIES)]]
        for seed in range(GENERATED_PLANS):
            plan = random_plan(random.Random(seed))
            groups.append([plan, *plan.children])
        cuts = 0
        for plans in groups:
            group = QueryGroup()
            for index, plan in enumerate(plans):
                group.add(f"q{index}", plan)
            for name in group.names():
                residual = group[name].plan
                _assert_agrees(residual)
                cuts += sum(isinstance(node, SharedScan)
                            for node in residual.walk())
        assert cuts > GENERATED_PLANS // 2
