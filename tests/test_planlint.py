"""Tests for the static plan linter (repro.analysis.planlint).

Positive direction: every rule in the catalogue provably fires, using the
constructed violations of ``tests/badplans``.  Negative direction: the
paper's five queries — as written and as compiled under every mode — lint
clean, so the rules carry no false positives on the plans the engine
actually runs.  (Optimizer rewrites are held to the Definition 1 oracle
in ``tests/test_optimizer.py``.)
"""

from __future__ import annotations

import pytest
from badplans import CORPUS, BadPlan
from badplans.cases import WINDOW, _GEN

from repro.analysis.planlint import lint, lint_compiled
from repro.analysis.rules import ALL_RULES, PLAN_RULES, rederive_patterns
from repro.cli import main
from repro.core.annotate import annotate
from repro.core.metrics import Counters, NullCounters
from repro.engine.query import ContinuousQuery
from repro.engine.strategies import ExecutionConfig, Mode, compile_plan
from repro.errors import PlanError
from repro.workloads import queries
from repro.workloads.traffic import TrafficTraceGenerator

QUERY_BUILDERS = {
    "query1": lambda: queries.query1(_GEN, WINDOW),
    "query2": lambda: queries.query2(_GEN, WINDOW),
    "query2_pairs": lambda: queries.query2(_GEN, WINDOW, pairs=True),
    "query3": lambda: queries.query3(_GEN, WINDOW),
    "query4": lambda: queries.query4(_GEN, WINDOW),
    "query5_pullup": lambda: queries.query5_pullup(_GEN, WINDOW),
    "query5_pushdown": lambda: queries.query5_pushdown(_GEN, WINDOW),
}

WARNING_RULES = {"DM502"}


# ---------------------------------------------------------------------------
# Positive: every rule fires on its corpus case
# ---------------------------------------------------------------------------

class TestCorpus:
    @pytest.mark.parametrize("case", CORPUS, ids=[c.name for c in CORPUS])
    def test_target_rule_fires(self, case: BadPlan):
        report = case.report()
        fired = {d.rule for d in report.diagnostics}
        assert case.rule in fired, (
            f"{case.name} must trip {case.rule}; fired {sorted(fired)}")

    @pytest.mark.parametrize("case", CORPUS, ids=[c.name for c in CORPUS])
    def test_severity_matches_catalogue(self, case: BadPlan):
        report = case.report()
        hits = [d for d in report.diagnostics if d.rule == case.rule]
        if case.rule in WARNING_RULES:
            assert all(not d.is_error for d in hits)
            assert report.ok, "dead-machinery warnings must not fail a plan"
        else:
            assert any(d.is_error for d in hits)
            assert not report.ok

    def test_corpus_covers_every_rule(self):
        assert {c.rule for c in CORPUS} == set(ALL_RULES), (
            "each rule in the catalogue needs a corpus case")

    @pytest.mark.parametrize("case", CORPUS, ids=[c.name for c in CORPUS])
    def test_diagnostics_render(self, case: BadPlan):
        report = case.report()
        text = report.render()
        assert case.rule in text
        for d in report.diagnostics:
            assert d.severity.upper() in d.render()
        assert case.rule in report.summary() or report.diagnostics


# ---------------------------------------------------------------------------
# Negative: the paper's queries lint clean everywhere
# ---------------------------------------------------------------------------

class TestPaperQueriesClean:
    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    def test_logical_plan_clean(self, name):
        plan = QUERY_BUILDERS[name]()
        report = lint(plan)
        assert report.ok and not report.diagnostics, report.render()
        assert report.rules_run == len(PLAN_RULES)

    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_compiled_pipeline_clean(self, name, mode):
        plan = QUERY_BUILDERS[name]()
        config = ExecutionConfig(mode=mode)
        try:
            compiled = compile_plan(plan, config, Counters())
        except PlanError:
            assert mode is Mode.DIRECT  # strict plans reject DIRECT
            return
        report = lint_compiled(compiled)
        assert report.ok and not report.diagnostics, report.render()

    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    def test_rederivation_agrees_with_annotate(self, name):
        """UP001's independent implementation of Rules 1-5 must agree with
        the production annotator on every paper plan."""
        plan = QUERY_BUILDERS[name]()
        annotated = annotate(plan)
        derived = rederive_patterns(plan)
        for node in plan.walk():
            assert annotated.pattern_of(node) is derived[id(node)]


# ---------------------------------------------------------------------------
# Specific rule shapes not covered by the corpus one-per-rule mapping
# ---------------------------------------------------------------------------

class TestRuleDetails:
    def test_report_summary(self):
        clean = lint(QUERY_BUILDERS["query1"]())
        dirty = CORPUS[0].report()
        assert clean.summary() == f"clean ({len(PLAN_RULES)} rules)"
        assert "error" in dirty.summary()


# ---------------------------------------------------------------------------
# State ownership and bound certification
# ---------------------------------------------------------------------------


def _mutable_state(compiled) -> dict[int, str]:
    """``id -> slot`` of every state buffer, counter sink, metrics
    registry and view one compiled pipeline writes to; the
    write-discarding null sink is shared by design and left out."""
    found = {}
    for op in compiled.ops.values():
        for label, buffer in op.state_buffers():
            if buffer is not None:
                found[id(buffer)] = f"{type(op).__name__}.{label}"
    for attr in ("counters", "metrics", "view"):
        obj = getattr(compiled, attr)
        if obj is not None and not isinstance(obj, NullCounters):
            found[id(obj)] = attr
    return found


def _assert_isolated(pipelines) -> None:
    """No two compiled pipelines share a mutable state object."""
    owner: dict[int, str] = {}
    for scope, compiled in pipelines:
        for obj_id, slot in _mutable_state(compiled).items():
            assert obj_id not in owner, (
                f"{scope}'s {slot} is also {owner[obj_id]}'s")
            owner[obj_id] = scope


class TestOwnershipAndBounds:
    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_driver_aware_lint_clean(self, name, mode):
        """A pipeline built with its driver, as a query builds it, lints
        clean for every paper query under every mode, and the driver has
        attached its certificate."""
        plan = QUERY_BUILDERS[name]()
        config = ExecutionConfig(mode=mode)
        try:
            query = ContinuousQuery(plan, config)
        except PlanError:
            assert mode is Mode.DIRECT  # strict plans reject DIRECT
            return
        report = lint_compiled(query.compiled)
        assert report.ok and not report.diagnostics, report.render()

    @pytest.mark.parametrize("root", ["group-by", "δ"])
    def test_state_view_roots_keep_one_owner_per_buffer(self, root):
        """A group-by or δ root answers from its operator's state.  The
        view holds the operator, not the buffer: every buffer has one
        slot, the certificate lists the operator's slots once
        and no ``result-view`` entry, and the run's metrics report no
        stored result."""
        from repro.analysis.bounds import attach_certificate
        from repro.lang.builder import agg_sum, count, from_window

        if root == "δ":
            plan, slots = QUERY_BUILDERS["query2"](), ["output"]
        else:
            plan = (from_window(_GEN.stream_def(0, WINDOW))
                    .group_by(["src_ip"], [count("flows"),
                                           agg_sum("bytes", "bytes")])
                    .build())
            slots = ["input", "groups"]
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        report = lint_compiled(query.compiled)
        assert report.ok and not report.diagnostics, report.render()
        assert query.compiled.certificate is not None
        buffers = [id(b) for op in query.compiled.ops.values()
                   for _label, b in op.state_buffers() if b is not None]
        assert len(buffers) == len(set(buffers))
        entries = attach_certificate(query.compiled).entries
        assert [e.label for e in entries if e.path == "$"] == slots
        result = query.run(TrafficTraceGenerator().events(600), batch=64)
        assert sum(result.answer().values()) > 0
        assert len(query.compiled.view) == 0
        assert result.metrics.value("view_results_peak") == 0

    def test_shared_group_members_clean_and_isolated(self):
        """Fused shared-group member pipelines lint clean and share no
        mutable state with each other (the null counter sink aside)."""
        from repro.engine.multi import QueryGroup

        gen = TrafficTraceGenerator()
        group = QueryGroup(shared=True)
        group.add("a", queries.query1(gen, WINDOW),
                  ExecutionConfig(mode=Mode.UPA))
        group.add("b", queries.query2(gen, WINDOW),
                  ExecutionConfig(mode=Mode.UPA))
        pipelines = []
        for name in group.names():
            query = group[name]
            report = lint_compiled(query.compiled)
            assert report.ok and not report.diagnostics, (
                f"{name}:\n{report.render()}")
            pipelines.append((name, query.compiled))
        _assert_isolated(pipelines)

    def test_shard_replicas_clean_and_isolated(self):
        """Shard replica pipelines (compiled exactly the way workers do)
        lint clean and own disjoint mutable state."""
        from repro.engine.shard import _compile_replica

        members = [("q", QUERY_BUILDERS["query1"](),
                    ExecutionConfig(mode=Mode.UPA))]
        drivers = [_compile_replica(members)[0] for _ in range(3)]
        pipelines = []
        for i, driver in enumerate(drivers):
            report = lint_compiled(driver.compiled)
            assert report.ok and not report.diagnostics, report.render()
            pipelines.append((f"shard{i}", driver.compiled))
        _assert_isolated(pipelines)

    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    def test_certificate_is_bounded_for_paper_queries(self, name):
        """Every paper query's certificate is fully bounded (no entry is
        ``unbounded``) and prices under the cost model."""
        from repro.analysis.bounds import derive_certificate

        plan = QUERY_BUILDERS[name]()
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA),
                                Counters())
        cert = derive_certificate(compiled)
        assert cert.bounded, cert.render()
        assert cert.cost is not None and cert.cost.total > 0
        assert "cost=" in cert.summary()
        assert "state certificate" in cert.render()


# ---------------------------------------------------------------------------
# Surfaces: explain footer and the repro lint CLI
# ---------------------------------------------------------------------------

class TestSurfaces:
    def test_explain_carries_lint_footer(self):
        query = ContinuousQuery(QUERY_BUILDERS["query1"](),
                                ExecutionConfig(mode=Mode.UPA))
        text = query.explain()
        assert f"-- lint: clean ({len(PLAN_RULES)} rules)" in text

    def test_cli_lint_clean_query(self, capsys):
        code = main([
            "lint",
            "SELECT * FROM link0 [RANGE 50] JOIN link1 [RANGE 50]"
            " ON src_ip = src_ip",
            "--links", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan is clean" in out

    def test_cli_lint_warns_on_dead_machinery(self, capsys):
        """A DISTINCT over a DISTINCT is advisory only: the warning prints
        but the exit status stays 0."""
        code = main([
            "lint", "SELECT DISTINCT src_ip FROM (SELECT DISTINCT src_ip "
            "FROM link0 [RANGE 50]) AS d",
            "--links", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "DM502" in out

    def test_cli_has_no_str_storage_option(self, capsys):
        """UPA stores STR results one way, so the option is gone from every
        subcommand: argparse rejects it with exit status 2."""
        for command in (["run", "SELECT * FROM link0 [RANGE 5]",
                         "--trace", "t.tsv"],
                        ["run-group", "SELECT * FROM link0 [RANGE 5]",
                         "--trace", "t.tsv"],
                        ["lint", "SELECT * FROM link0 [RANGE 5]"]):
            with pytest.raises(SystemExit) as exit_info:
                main(command + ["--str-storage", "negative"])
            assert exit_info.value.code == 2
            assert "--str-storage" in capsys.readouterr().err

    def test_cli_lint_reports_direct_rejection(self, capsys):
        """A strict plan under DIRECT cannot compile; the CLI still lints
        the logical plan and reports the strategy rejection."""
        code = main([
            "lint",
            "SELECT * FROM link0 [RANGE 50] MINUS link1 [RANGE 50]"
            " ON src_ip",
            "--links", "2", "--mode", "direct",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "rejected the plan" in out
