"""The known-bad-plan corpus: one constructed violation per lint rule.

Every :data:`CORPUS` entry builds a plan (and, where the rule is physical,
a compiled pipeline) that provably trips exactly the rule it names.  The
production compilation path refuses to *create* these shapes, so each case
manufactures its violation the only way possible — by lying to an
annotation, tampering with a compiled operator's buffers, or hand-writing
an illegal rewrite output — mirroring how a real bug in those layers would
look to the linter.

The corpus is consumed by ``tests/test_planlint.py`` (every rule must
fire on its case and must *not* fire on the clean paper queries) and by
the ``repro lint`` documentation as a catalogue of what each rule means.
"""

from __future__ import annotations

import dataclasses
import sys
import types
from typing import Callable

from repro.analysis.planlint import (
    LintReport,
    lint,
    lint_compiled,
    lint_rewrite,
)
from repro.buffers.fifo import FifoBuffer
from repro.buffers.listbuffer import ListBuffer
from repro.buffers.partitioned import PartitionedBuffer
from repro.core.annotate import annotate
from repro.core.metrics import Counters
from repro.core.patterns import MONOTONIC, WKS
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
from repro.core.sharding import Partitionability, analyze_partitionability
from repro.core.tuples import Schema
from repro.engine.driver import Driver
from repro.engine.program import build_program
from repro.engine.strategies import (
    STR_NEGATIVE,
    ExecutionConfig,
    Mode,
    compile_plan,
)
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
    """Compile ``plan`` (unchecked) and return (config, compiled)."""
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
    """A SharedScan declaring its cut WKS while the hidden source subtree
    is a negation (STR).  Every consumer above the cut would choose FIFO
    buffers for a stream that delivers negative tuples."""
    source = Negation(_link(0), _link(1), "src_ip")
    scan = SharedScan(source, WKS, fingerprint="lying-cut", lag=WINDOW,
                      label="S1")
    return lint(scan)


# ---------------------------------------------------------------------------
# BUF — tampered physical buffers
# ---------------------------------------------------------------------------

def _buf101_fifo_under_wk() -> LintReport:
    """Query 4's root join is fed by duplicate-elimination outputs (WK):
    swap its left state into a FIFO list, which WK expirations would
    corrupt (they leave out of insertion order)."""
    plan = queries.query4(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.UPA)
    op = compiled.ops[id(plan)]  # the root JoinOp
    good = op._buffers[0]
    op._buffers = (FifoBuffer(key_of=good._key_of), op._buffers[1])
    return lint_compiled(compiled)


def _buf102_keyless_hash() -> LintReport:
    """Under NT every join side is a negative-tuple hash table; strip its
    key function so it can no longer locate a deletion victim in O(1)."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.NT)
    op = compiled.ops[id(plan)]
    op._buffers[0]._key_of = None  # the tamper
    return lint_compiled(compiled)


def _buf103_wrong_ring_geometry() -> LintReport:
    """Rebuild Query 4's left join state as a partitioned ring with the
    wrong span and the wrong partition count: tuples expiring later than
    the ring covers would wrap onto live partitions (Figure 7)."""
    plan = queries.query4(_GEN, WINDOW)
    config, compiled = _compiled(plan, mode=Mode.UPA)
    op = compiled.ops[id(plan)]
    good = op._buffers[0]
    bad = PartitionedBuffer(good.span * 2, config.n_partitions + 3,
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
# SH — stale sharding verdict
# ---------------------------------------------------------------------------

def _sh301_stale_shard_key() -> LintReport:
    """Record a sharding verdict routing every stream by ``dst_ip`` although
    the co-location analysis demands ``src_ip`` (Query 1 joins on it): a
    matching pair would land on two different shards and silently vanish."""
    plan = queries.query1(_GEN, WINDOW)
    verdict = analyze_partitionability(plan)
    stale = {
        name: dataclasses.replace(key, attr="dst_ip", index=4)
        for name, key in verdict.keys.items()
    }
    claimed = Partitionability(shardable=True, keys=stale)
    return lint(plan, claimed_sharding=claimed)


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

def _dm501_dead_negative_plumbing() -> LintReport:
    """Request the hybrid negative-tuple scheme for Query 1, which has no
    strict subplan: the knob selects machinery no tuple can ever reach."""
    plan = queries.query1(_GEN, WINDOW)
    config = ExecutionConfig(mode=Mode.UPA, str_storage=STR_NEGATIVE)
    return lint(plan, config)


def _dm502_redundant_distinct() -> LintReport:
    """DISTINCT over DISTINCT: the outer operator stores every tuple to
    remove nothing."""
    plan = DupElim(DupElim(Project(_link(0), ["src_ip"])))
    return lint(plan)


# ---------------------------------------------------------------------------
# PRG — tampered execution programs
# ---------------------------------------------------------------------------

def _prg601_missing_dispatch_table() -> LintReport:
    """Build Query 1's execution program, then delete one stream's dispatch
    table — the corruption a stale program cache would produce.  Every
    arrival on that stream would silently vanish."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.UPA)
    program = build_program(compiled)
    del program.dispatch[next(iter(program.dispatch))]
    return lint_compiled(compiled)


def _prg602_dropped_expire_participant() -> LintReport:
    """Under NT both of Query 1's windows materialize and must self-expire;
    drop one from the eager expiration program.  Its state would grow
    without bound and no negative tuples would ever be emitted for it."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.NT)
    program = build_program(compiled)
    program.expire_ops = program.expire_ops[:-1]
    return lint_compiled(compiled)


def _prg603_stateful_fused_prefix() -> LintReport:
    """Promote the first generic-suffix operator of a dispatch route into
    the fused scalar prefix.  The route is still covered in order (PRG601
    stays silent), but the promoted operator exposes no scalar kernel —
    fusing it would run it outside the expiration machinery."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.UPA)
    program = build_program(compiled)
    stream, plans = next(iter(program.dispatch.items()))
    dispatch_plan = plans[0]
    (promoted, _slot), rest = dispatch_plan.suffix[0], dispatch_plan.suffix[1:]
    program.dispatch[stream] = (dispatch_plan._replace(
        prefix=dispatch_plan.prefix + ((promoted, "pass", None),),
        suffix=rest),) + plans[1:]
    return lint_compiled(compiled)


# ---------------------------------------------------------------------------
# ALS — ownership and aliasing violations
# ---------------------------------------------------------------------------

def _als701_aliased_join_state() -> LintReport:
    """Alias Query 1's left join buffer into the right slot as well — the
    kind of defect a buffer-pool 'optimization' would produce.  Every
    buffer type stays pattern-correct (BUF101–103 stay green), but one
    side's inserts and purges now silently corrupt the other's state."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.UPA)
    op = compiled.ops[id(plan)]
    op._buffers = (op._buffers[0], op._buffers[0])  # the alias
    return lint_compiled(compiled)


def _als702_closure_captures_plan_node() -> LintReport:
    """Wrap one of the driver's compiled arrival closures in a closure
    that also captures the logical plan — the defect a 'convenient' debug
    hook or a half-sealed compile would produce.  The program and every
    buffer stay correct, so only the closure-capture walk sees that the
    hot path now holds pre-seal planning state."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.UPA)
    driver = Driver(compiled, build_program(compiled))
    stream, arrivals = next(iter(driver._arrivals_pt.items()))
    compiled_arrival = arrivals[0]

    def leaky_arrival(values, now):
        plan.describe()
        compiled_arrival(values, now)

    driver._arrivals_pt[stream] = (leaky_arrival,) + arrivals[1:]
    return lint_compiled(compiled, driver=driver)


def _als703_module_level_counter_sink() -> LintReport:
    """Reconstruct PR 5's ``NULL_COUNTERS`` bug: a *mutable* module-level
    counter sink aliased into a compiled pipeline's buffer.  Every
    pipeline sharing the module global accumulates each other's writes —
    cross-query contamination no per-run check can observe."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.UPA)
    module = types.ModuleType("repro._badplan_sink")
    module.SINK_COUNTERS = Counters()
    sys.modules["repro._badplan_sink"] = module
    try:
        op = compiled.ops[id(plan)]
        op._buffers[0].counters = module.SINK_COUNTERS  # the alias
        return lint_compiled(compiled)
    finally:
        del sys.modules["repro._badplan_sink"]


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


def _cst802_window_state_in_scan_list() -> LintReport:
    """Move Query 1's left join state — certified O(window) — into a
    pattern-blind scan list.  No BUF rule objects (a scan list is never
    order-corrupted), but every expiration now pays the O(n) scan the
    bound class was chosen to eliminate (Section 5.3.2)."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.UPA)
    op = compiled.ops[id(plan)]
    good = op._buffers[0]
    op._buffers = (ListBuffer(key_of=good._key_of), op._buffers[1])
    return lint_compiled(compiled)


def _cst803_unmonitored_checked_buffer() -> LintReport:
    """Compile Query 1 in checked mode, then strip the sanitizer monitor
    off one join side.  The drain-time certificate cross-check reads
    observed occupancy from the monitor, so the unwrapped buffer is a
    hole in the certificate: its state could outgrow the bound with no
    violation ever raised."""
    plan = queries.query1(_GEN, WINDOW)
    _config, compiled = _compiled(plan, mode=Mode.UPA, checked=True)
    op = compiled.ops[id(plan)]
    op._buffers = (op._buffers[0].inner, op._buffers[1])  # unwrap
    return lint_compiled(compiled)


#: Every case, in rule-catalogue order.  ``rule`` is the diagnostic the
#: case must produce; other rules may legitimately fire alongside it (a
#: lying SharedScan, for instance, trips both UP002 and UP001).
CORPUS: tuple[BadPlan, ...] = (
    BadPlan("tampered-annotation", "UP001",
            "root join re-annotated MONOTONIC after the fact",
            _up001_tampered_annotation),
    BadPlan("lying-shared-scan", "UP002",
            "shared cut declares WKS over a negation source",
            _up002_lying_shared_scan),
    BadPlan("fifo-under-wk", "BUF101",
            "WK-fed join state stored in a FIFO list",
            _buf101_fifo_under_wk),
    BadPlan("keyless-hash", "BUF102",
            "negative-tuple hash table stripped of its key function",
            _buf102_keyless_hash),
    BadPlan("wrong-ring-geometry", "BUF103",
            "partitioned ring sized to the wrong span and slot count",
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
    BadPlan("stale-shard-key", "SH301",
            "recorded routing keys disagree with the co-location analysis",
            _sh301_stale_shard_key),
    BadPlan("negation-below-nrr-join", "NR401",
            "negation hidden behind a shared cut under an NRR join",
            _nr401_negation_below_nrr_join),
    BadPlan("dead-negative-plumbing", "DM501",
            "hybrid negative-tuple storage for a negation-free plan",
            _dm501_dead_negative_plumbing),
    BadPlan("redundant-distinct", "DM502",
            "duplicate elimination over already-distinct input",
            _dm502_redundant_distinct),
    BadPlan("missing-dispatch-table", "PRG601",
            "execution program lost one stream's dispatch table",
            _prg601_missing_dispatch_table),
    BadPlan("dropped-expire-participant", "PRG602",
            "materialized window removed from the eager expiration program",
            _prg602_dropped_expire_participant),
    BadPlan("stateful-fused-prefix", "PRG603",
            "kernel-less suffix operator promoted into the fused prefix",
            _prg603_stateful_fused_prefix),
    BadPlan("aliased-join-state", "ALS701",
            "one buffer instance aliased into both join state slots",
            _als701_aliased_join_state),
    BadPlan("plan-node-in-closure", "ALS702",
            "compiled arrival closure captures a logical plan node",
            _als702_closure_captures_plan_node),
    BadPlan("module-level-counter-sink", "ALS703",
            "mutable module-global counters aliased into a pipeline",
            _als703_module_level_counter_sink),
    BadPlan("unbounded-join-state", "CST801",
            "unbounded state run under a config that never opted in",
            _cst801_unbounded_join_state),
    BadPlan("window-state-in-scan-list", "CST802",
            "O(window) state demoted to a pattern-blind scan list",
            _cst802_window_state_in_scan_list),
    BadPlan("unmonitored-checked-buffer", "CST803",
            "checked-mode buffer stripped of its sanitizer monitor",
            _cst803_unmonitored_checked_buffer),
)

__all__ = ["BadPlan", "CORPUS", "WINDOW"]
