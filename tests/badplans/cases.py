"""The known-bad-plan corpus: one constructed violation per lint rule.

Every :data:`CORPUS` entry builds a plan (and, where the rule reads
state, a compiled pipeline) that provably trips the rule it names.  Each
is input the engine is handed rather than output it produces — a lying
annotation or shared cut, a hand-written illegal rewrite, a configuration
that contradicts its plan — which is what the linter exists to check.

The corpus is consumed by ``tests/test_planlint.py`` (every rule must
fire on its case and must *not* fire on the clean paper queries) and by
the ``repro lint`` documentation as a catalogue of what each rule means.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.analysis.planlint import (
    LintReport,
    lint,
    lint_compiled,
    lint_rewrite,
)
from repro.buffers.partitioned import PartitionedBuffer
from repro.core.annotate import annotate
from repro.core.metrics import Counters
from repro.core.patterns import MONOTONIC, STR, WKS
from repro.core.plan import (
    DupElim,
    Join,
    Negation,
    NRRJoin,
    Project,
    Select,
    SharedScan,
    WindowScan,
    attr_equals,
)
from repro.core.tuples import Schema
from repro.engine.driver import Driver
from repro.engine.strategies import ExecutionConfig, Mode, compile_plan
from repro.streams.relation import NRR
from repro.streams.stream import StreamDef
from repro.workloads import queries
from repro.workloads.traffic import TrafficTraceGenerator

#: One window size for every case — geometry is irrelevant to the rules.
WINDOW = 50.0

_GEN = TrafficTraceGenerator()


def _link(index: int) -> WindowScan:
    """A fresh scan of traffic link ``index`` under the corpus window."""
    return WindowScan(_GEN.stream_def(index, WINDOW))


def _compiled(plan, **config_kwargs):
    """Compile ``plan`` and return (config, compiled)."""
    config = ExecutionConfig(**config_kwargs)
    return config, compile_plan(plan, config, Counters())


@dataclasses.dataclass(frozen=True)
class BadPlan:
    """One corpus entry: the rule it must trip and how to demonstrate it."""

    name: str
    rule: str
    description: str
    build: Callable[[], LintReport]

    def report(self) -> LintReport:
        """Build the case and lint it."""
        return self.build()


# ---------------------------------------------------------------------------
# UP — lying annotations
# ---------------------------------------------------------------------------

def _up001_tampered_annotation() -> LintReport:
    """Annotate Query 1 correctly, then flip the root join's pattern to
    MONOTONIC — the kind of corruption a caching bug in the annotation
    layer would produce.  Rules 1-5 re-derive WK for a join of windows."""
    plan = queries.query1(_GEN, WINDOW)
    annotated = annotate(plan)
    annotated._patterns[id(plan)] = MONOTONIC  # the lie
    return lint(plan, annotated=annotated)


def _up002_lying_shared_scan() -> LintReport:
    """A SharedScan over a negation stamped with a uniform lag its source
    does not have: a union above the cut would re-derive WKS or WK from
    the lie instead of from the un-cut plan."""
    source = Negation(_link(0), _link(1), "src_ip")
    scan = SharedScan(source, STR, fingerprint="lying-cut", lag=WINDOW * 3,
                      label="S1")
    return lint(scan)


# ---------------------------------------------------------------------------
# BUF — a tampered ring
# ---------------------------------------------------------------------------

def _buf103_wrong_ring_geometry() -> LintReport:
    """Rebuild Query 4's left join state as a partitioned ring with the
    wrong span: the slots no longer match the lifetimes they hold, so
    tuples wrap onto live partitions (Figure 7) — still purged exactly,
    only slower."""
    plan = queries.query4(_GEN, WINDOW)
    config, compiled = _compiled(plan, mode=Mode.UPA)
    op = compiled.ops[id(plan)]
    good = op._buffers[0]
    bad = PartitionedBuffer(good.span * 2, config.n_partitions,
                            key_of=good._key_of)
    op._buffers = (bad, op._buffers[1])
    return lint_compiled(compiled)


# ---------------------------------------------------------------------------
# RW — illegal rewrite outputs
# ---------------------------------------------------------------------------

def _rw200_schema_change() -> LintReport:
    """A 'rewrite' that projects the output down to one column cannot be
    answer-preserving, whatever else it got right."""
    original = queries.query1(_GEN, WINDOW)
    candidate = Project(original, ["l_src_ip"])
    return lint_rewrite(original, candidate)


def _rw201_illegal_negation_pull_up() -> LintReport:
    """Pull Query 5's negation above the join but negate on ``l_dst_ip``,
    which is not the join key: the pull-up precondition of Section 5.4.2
    fails and the two plans produce different multiplicities."""
    original = queries.query5_pushdown(_GEN, WINDOW)
    ftp = Select(_link(2), attr_equals("protocol", "ftp"))
    join = Join(_link(0), ftp, "src_ip", "src_ip")
    candidate = Negation(join, _link(1), "l_dst_ip", "src_ip")
    return lint_rewrite(original, candidate)


def _rw203_changed_join_key() -> LintReport:
    """Push duplicate elimination below the join but 'accidentally' retarget
    the join from src_ip to dst_ip: structurally a push-down, semantically a
    different query."""
    original = DupElim(Join(_link(0), _link(1), "src_ip", "src_ip"))
    candidate = Join(DupElim(_link(0)), DupElim(_link(1)),
                     "dst_ip", "dst_ip")
    return lint_rewrite(original, candidate)


# ---------------------------------------------------------------------------
# NR — retraction below a non-retroactive join
# ---------------------------------------------------------------------------

def _nr401_negation_below_nrr_join() -> LintReport:
    """Hide a negation behind a SharedScan that (falsely) declares WKS, then
    join the cut with an NRR.  Annotation cannot see through the cut, so the
    plan builds — but the negation's retractions would reach a join that
    cannot process negative tuples.  NR401 looks through the cut."""
    source = Negation(_link(0), _link(1), "src_ip")
    scan = SharedScan(source, WKS, fingerprint="hides-negation", lag=WINDOW,
                      label="S2")
    hosts = NRR("hosts", Schema(["host_ip", "rack"]),
                rows=[("10.0.0.1", "r1")])
    plan = NRRJoin(scan, hosts, "src_ip", "host_ip")
    return lint(plan)


# ---------------------------------------------------------------------------
# DM — dead machinery (warnings)
# ---------------------------------------------------------------------------

def _dm502_redundant_distinct() -> LintReport:
    """DISTINCT over DISTINCT: the outer operator stores every tuple to
    remove nothing."""
    plan = DupElim(DupElim(Project(_link(0), ["src_ip"])))
    return lint(plan)


# ---------------------------------------------------------------------------
# PRG — a reordered expiration program
# ---------------------------------------------------------------------------

def _prg602_top_down_expiration() -> LintReport:
    """Under NT both of Query 1's windows expire eagerly; reverse the
    expiration program out of the plan's bottom-up walk order."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.NT)
    compiled.expire_ops = compiled.expire_ops[::-1]
    return lint_compiled(compiled)


# ---------------------------------------------------------------------------
# ALS — a plan node captured by a compiled closure
# ---------------------------------------------------------------------------

def _als702_closure_captures_plan_node() -> LintReport:
    """Wrap one of the driver's compiled arrival closures in a closure
    that also captures the logical plan — the defect a 'convenient' debug
    hook or a half-sealed compile would produce.  The program and every
    buffer stay correct, so only the closure-capture walk sees that the
    hot path now holds pre-seal planning state."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.UPA)
    driver = Driver(compiled)
    stream, arrivals = next(iter(driver._arrivals_pt.items()))
    compiled_arrival = arrivals[0]

    def leaky_arrival(values, now):
        plan.describe()
        compiled_arrival(values, now)

    driver._arrivals_pt[stream] = (leaky_arrival,) + arrivals[1:]
    return lint_compiled(compiled, driver=driver)


# ---------------------------------------------------------------------------
# CST — state-bound certificate violations
# ---------------------------------------------------------------------------

def _unbounded_scan(name: str) -> WindowScan:
    """A scan of an unbounded (windowless) stream — tuples never expire."""
    return WindowScan(StreamDef(name, Schema(["v"]), None))


def _cst801_unbounded_join_state() -> LintReport:
    """A join over two unbounded streams, compiled under the explicit
    ``allow_unbounded_state`` opt-in, then linted against a configuration
    *without* it — the config swap a deployment bug would produce.  The
    compile-time guard saw the opt-in; only the certificate re-derivation
    catches that the running configuration never consented to state that
    nothing ever purges."""
    plan = Join(_unbounded_scan("inf_a"), _unbounded_scan("inf_b"),
                "v", "v")
    config = ExecutionConfig(mode=Mode.UPA, allow_unbounded_state=True)
    compiled = compile_plan(plan, config, Counters())
    swapped = ExecutionConfig(mode=Mode.UPA)
    return lint(plan, swapped, annotated=compiled.annotated,
                compiled=compiled)


#: Every case, in rule-catalogue order.  ``rule`` is the diagnostic the
#: case must produce; other rules may legitimately fire alongside it.
CORPUS: tuple[BadPlan, ...] = (
    BadPlan("tampered-annotation", "UP001",
            "root join re-annotated MONOTONIC after the fact",
            _up001_tampered_annotation),
    BadPlan("lying-shared-scan", "UP002",
            "shared cut declares a lag its negation source does not have",
            _up002_lying_shared_scan),
    BadPlan("wrong-ring-geometry", "BUF103",
            "partitioned ring sized to the wrong span",
            _buf103_wrong_ring_geometry),
    BadPlan("schema-changing-rewrite", "RW200",
            "candidate projects the output schema down to one column",
            _rw200_schema_change),
    BadPlan("illegal-negation-pull-up", "RW201",
            "negation pulled above a join on a non-join attribute",
            _rw201_illegal_negation_pull_up),
    BadPlan("changed-join-key", "RW203",
            "dup-elim push-down that retargets the join key",
            _rw203_changed_join_key),
    BadPlan("negation-below-nrr-join", "NR401",
            "negation hidden behind a shared cut under an NRR join",
            _nr401_negation_below_nrr_join),
    BadPlan("redundant-distinct", "DM502",
            "duplicate elimination over already-distinct input",
            _dm502_redundant_distinct),
    BadPlan("top-down-expiration", "PRG602",
            "eager expiration program reversed into top-down order",
            _prg602_top_down_expiration),
    BadPlan("plan-node-in-closure", "ALS702",
            "compiled arrival closure captures a logical plan node",
            _als702_closure_captures_plan_node),
    BadPlan("unbounded-join-state", "CST801",
            "unbounded state run under a config that never opted in",
            _cst801_unbounded_join_state),
)

__all__ = ["BadPlan", "CORPUS", "WINDOW"]
