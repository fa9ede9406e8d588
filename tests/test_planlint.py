"""Tests for the static plan linter (repro.analysis.planlint).

Positive direction: every rule in the catalogue provably fires, using the
constructed violations of ``tests/badplans``.  Negative direction: the
paper's five queries — as written, as compiled under every mode, and as
rewritten by the optimizer — lint clean, so the rules carry no false
positives on the plans the engine actually runs.
"""

from __future__ import annotations

import pytest
from badplans import CORPUS, BadPlan
from badplans.cases import WINDOW, _GEN

from repro.analysis.planlint import lint, lint_compiled, lint_rewrite
from repro.analysis.rules import ALL_RULES, PLAN_RULES, rederive_patterns
from repro.cli import main
from repro.core.annotate import annotate
from repro.core.metrics import Counters
from repro.core.optimizer import Optimizer
from repro.core.plan import SharedScan, WindowScan
from repro.core.sharding import analyze_partitionability
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

WARNING_RULES = {"DM501", "DM502"}


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
        verdict = analyze_partitionability(plan)
        report = lint_compiled(compiled, claimed_sharding=verdict)
        assert report.ok and not report.diagnostics, report.render()

    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    def test_checked_pipeline_clean(self, name):
        """The BUF rules must see *through* checked-mode monitor proxies."""
        plan = QUERY_BUILDERS[name]()
        config = ExecutionConfig(mode=Mode.UPA, checked=True)
        compiled = compile_plan(plan, config, Counters())
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


class TestOptimizerOutputsClean:
    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    def test_every_ranked_candidate_passes_rewrite_lint(self, name):
        plan = QUERY_BUILDERS[name]()
        for ranked in Optimizer().rank(plan):
            report = lint_rewrite(plan, ranked.plan)
            assert report.ok, (
                f"optimizer candidate for {name} failed lint:\n"
                f"{report.render()}")


# ---------------------------------------------------------------------------
# Specific rule shapes not covered by the corpus one-per-rule mapping
# ---------------------------------------------------------------------------

class TestRuleDetails:
    def test_up002_lag_mismatch_alone_fires(self):
        """A cut with the right pattern but a wrong lag still lies: WKS/WK
        decisions above it would diverge from the un-cut plan."""
        source = WindowScan(_GEN.stream_def(0, WINDOW))
        scan = SharedScan(source, annotate(source).pattern_of(source),
                          fingerprint="bad-lag", lag=WINDOW * 7, label="S9")
        report = lint(scan)
        assert any(d.rule == "UP002" and "lag" in d.message
                   for d in report.diagnostics), report.render()

    def test_report_merge_and_summary(self):
        clean = lint(QUERY_BUILDERS["query1"]())
        dirty = CORPUS[0].report()
        merged = clean.merged(dirty)
        assert merged.rules_run == clean.rules_run + dirty.rules_run
        assert len(merged.diagnostics) == len(dirty.diagnostics)
        assert "clean" in clean.summary()
        assert "error" in dirty.summary()


# ---------------------------------------------------------------------------
# Ownership and bound certification (ALS7xx / CST8xx)
# ---------------------------------------------------------------------------

#: The ownership/bounds rules added with the certificate layer.
OWNERSHIP_BOUND_RULES = {"ALS701", "ALS702", "ALS703",
                         "CST801", "CST802", "CST803"}

_OB_CASES = [c for c in CORPUS if c.rule in OWNERSHIP_BOUND_RULES]


class TestOwnershipAndBounds:
    @pytest.mark.parametrize("case", _OB_CASES,
                             ids=[c.name for c in _OB_CASES])
    def test_case_fires_its_rule_and_no_other(self, case: BadPlan):
        """Each ownership/bounds corpus case is surgical: it trips exactly
        the rule it names, so a diagnostic identifies one defect class."""
        report = case.report()
        fired = {d.rule for d in report.diagnostics}
        assert fired == {case.rule}, report.render()

    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_driver_aware_lint_clean(self, name, mode):
        """The full catalogue — including the closure-capture walk over the
        live driver — is clean for every paper query under every mode."""
        plan = QUERY_BUILDERS[name]()
        config = ExecutionConfig(mode=mode)
        try:
            query = ContinuousQuery(plan, config)
        except PlanError:
            assert mode is Mode.DIRECT  # strict plans reject DIRECT
            return
        report = lint_compiled(query.compiled, driver=query.executor)
        assert report.ok and not report.diagnostics, report.render()

    @pytest.mark.parametrize("checked", [False, True])
    @pytest.mark.parametrize("root", ["group-by", "δ"])
    def test_state_view_roots_keep_one_owner_per_buffer(self, root, checked):
        """A group-by or δ root answers from its operator's state.  The
        view holds the operator, not the buffer: ALS701 finds every buffer
        under one owner, the certificate lists the operator's slots once
        and no ``result-view`` entry, and the run's metrics report no
        stored result — through a checked, monitored run included."""
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
        query = ContinuousQuery(plan, ExecutionConfig(
            mode=Mode.UPA, checked=checked))
        report = lint_compiled(query.compiled, driver=query.executor)
        assert report.ok and not report.diagnostics, report.render()
        entries = attach_certificate(query.compiled).entries
        assert [e.label for e in entries if e.path == "$"] == slots
        result = query.run(TrafficTraceGenerator().events(600), batch=64)
        assert sum(result.answer().values()) > 0
        assert len(query.compiled.view) == 0
        assert result.metrics.value("view_results_peak") == 0

    def test_shared_group_members_clean_and_isolated(self):
        """Fused shared-group member pipelines lint clean and share no
        non-whitelisted mutable state with each other."""
        from repro.engine.multi import QueryGroup
        from repro.analysis.ownership import shared_mutable_state

        gen = TrafficTraceGenerator()
        group = QueryGroup(shared=True)
        group.add("a", queries.query1(gen, WINDOW),
                  ExecutionConfig(mode=Mode.UPA))
        group.add("b", queries.query2(gen, WINDOW),
                  ExecutionConfig(mode=Mode.UPA))
        pipelines = []
        for name in group.names():
            query = group[name]
            report = lint_compiled(query.compiled,
                                   driver=query.executor)
            assert report.ok and not report.diagnostics, (
                f"{name}:\n{report.render()}")
            pipelines.append((name, query.compiled))
        assert shared_mutable_state(pipelines) == []

    def test_shard_replicas_clean_and_isolated(self):
        """Shard replica pipelines (compiled exactly the way workers do)
        lint clean and own disjoint mutable state."""
        from repro.engine.shard import _compile_replica
        from repro.analysis.ownership import shared_mutable_state

        members = [("q", QUERY_BUILDERS["query1"](),
                    ExecutionConfig(mode=Mode.UPA))]
        drivers = [_compile_replica(members)[0] for _ in range(3)]
        pipelines = []
        for i, driver in enumerate(drivers):
            report = lint_compiled(driver.compiled, driver=driver)
            assert report.ok and not report.diagnostics, report.render()
            pipelines.append((f"shard{i}", driver.compiled))
        assert shared_mutable_state(pipelines) == []

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

    @pytest.mark.parametrize("name", sorted(QUERY_BUILDERS))
    def test_checked_run_validates_certificate(self, name):
        """A checked run of each paper query cross-validates its state
        certificate against the observed sanitizer counters with zero
        violations — and actually checked at least one armed monitor."""
        from repro.analysis.bounds import validate_certificate

        gen = TrafficTraceGenerator()
        plan = QUERY_BUILDERS[name]()
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA,
                                                      checked=True))
        result = query.run(gen.events(600))
        assert result.certificate is not None
        # run() already validated at drain; re-validate explicitly and
        # assert coverage was non-trivial.
        assert validate_certificate(query.compiled) > 0

    def test_shm_segments_whitelisted_as_transport_not_state(self):
        """Isolation proof for the columnar shm transport: a shared-memory
        segment reachable from every shard replica is seen by the analysis
        as mutable state, yet exempted as the transport contract — while an
        ordinary mutable object in the *same* cross-scope position is still
        flagged (the whitelist is surgical, not a blind spot)."""
        from multiprocessing import shared_memory
        from types import SimpleNamespace

        from repro.analysis.ownership import (
            _is_mutable_state,
            _is_whitelisted,
            shared_mutable_state,
        )
        from repro.engine.shard import _compile_replica

        segment = shared_memory.SharedMemory(create=True, size=64)
        try:
            assert _is_mutable_state(segment)
            assert _is_whitelisted(segment)

            plan = QUERY_BUILDERS["query1"]()
            leak: list = []  # a genuinely shared plain container
            pipelines = []
            for i in range(2):
                [driver] = _compile_replica(
                    [("q", plan, ExecutionConfig(mode=Mode.UPA))])
                # Plant the shared segment AND a shared list where the
                # replica's ownership walk will find them, exactly like a
                # buffer slot.
                driver.compiled.ops[f"planted-{i}"] = SimpleNamespace(
                    state_buffers=lambda: [("shm", segment), ("leak", leak)],
                    counters=None)
                pipelines.append((f"shard{i}", driver.compiled))
            shared = shared_mutable_state(pipelines)
            assert [desc for desc, _scopes in shared] == \
                ["list at op:SimpleNamespace.leak"]
        finally:
            segment.close()
            segment.unlink()

    def test_register_shared_sink_suppresses_als701(self):
        """A deliberately shared structure, once registered, is exempt from
        the exclusive-ownership proof."""
        from repro.analysis.ownership import (
            _SHARED_SINK_IDS,
            register_shared_sink,
        )

        plan = QUERY_BUILDERS["query1"]()
        compiled = compile_plan(plan, ExecutionConfig(mode=Mode.UPA),
                                Counters())
        op = compiled.ops[id(plan)]
        shared = op._buffers[0]
        op._buffers = (shared, shared)
        assert any(d.rule == "ALS701"
                   for d in lint_compiled(compiled).diagnostics)
        register_shared_sink(shared)
        try:
            report = lint_compiled(compiled)
            assert not any(d.rule == "ALS701" for d in report.diagnostics)
        finally:
            _SHARED_SINK_IDS.discard(id(shared))


# ---------------------------------------------------------------------------
# Surfaces: explain footer and the repro lint CLI
# ---------------------------------------------------------------------------

class TestSurfaces:
    def test_explain_carries_lint_footer(self):
        query = ContinuousQuery(QUERY_BUILDERS["query1"](),
                                ExecutionConfig(mode=Mode.UPA))
        text = query.explain()
        assert "-- lint: clean" in text

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
        """str_storage=negative on a negation-free query is advisory only:
        the warning prints but the exit status stays 0."""
        code = main([
            "lint", "SELECT DISTINCT src_ip FROM link0 [RANGE 50]",
            "--links", "1", "--str-storage", "negative",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "DM501" in out

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
