"""Static verification rules for update-pattern annotations and plans.

Every invariant the engine *relies on* is re-proved here from first
principles, independently of the code that established it:

* the five pattern-propagation rules of Section 5.2 (plus the Rule 2 lag
  refinement for mixed-window unions) are re-derived by a second, separate
  implementation and cross-checked against :mod:`repro.core.annotate`;
* physical buffer choices are checked against the pattern of the edge that
  feeds them (Section 5.3.2: FIFO only under WKS, hash-on-key needs a key,
  partitioned-buffer geometry must match the plan's window spans);
* the optimizer's two update-pattern heuristics — negation pull-up and
  duplicate-elimination push-down (Section 5.4.2) — have their
  preconditions re-proved on the *output* plan, not trusted;
* sharding keys recorded for a parallel run are re-derived from
  :mod:`repro.core.sharding` and compared;
* the tables the driver compiles its loops from (the compiled query's
  dispatch tables and expiration participants) are cross-checked against
  the plan: dispatch tables cover every leaf edge, eager expiration
  participants match the operator classification, fused scalar prefixes
  are stateless;
* non-retroactivity of NRR joins is verified structurally, looking
  *through* :class:`~repro.core.plan.SharedScan` cuts that annotation
  cannot see past;
* dead machinery — negative-tuple plumbing above plans with no strict
  subplan, duplicate elimination over provably duplicate-free input — is
  flagged as a warning.

Each rule is a generator over :class:`Diagnostic` objects; the catalogue at
the bottom of this module is what :func:`repro.analysis.planlint.lint`
executes.  Rule identifiers are stable API (tests and docs reference them).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator

from ..buffers.fifo import FifoBuffer
from ..buffers.hashed import HashBuffer
from ..buffers.partitioned import PartitionedBuffer
from ..core.annotate import AnnotatedPlan, _uniform_lag
from ..core.patterns import (
    MONOTONIC,
    STR,
    UpdatePattern,
    WK,
    WKS,
    most_complex,
)
from ..core.plan import (
    DupElim,
    GroupBy,
    Intersect,
    Join,
    LogicalNode,
    Negation,
    NRRJoin,
    Project,
    RelationJoin,
    Rename,
    Select,
    SharedScan,
    Union,
    WindowScan,
)
from ..core.sharding import Partitionability, analyze_partitionability

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding of the plan linter.

    ``rule`` is the stable identifier from the catalogue below, ``path`` the
    slash-separated node path from the plan root (``$`` is the root itself),
    ``message`` the violated invariant, and ``hint`` a suggested fix.
    """

    rule: str
    severity: str
    path: str
    message: str
    hint: str = ""

    @property
    def is_error(self) -> bool:
        return self.severity == SEVERITY_ERROR

    def render(self) -> str:
        tail = f"  [fix: {self.hint}]" if self.hint else ""
        return f"{self.severity.upper()} {self.rule} at {self.path}: " \
               f"{self.message}{tail}"


class LintContext:
    """Everything a rule may inspect.  ``compiled``/``claimed_sharding``/
    ``driver`` are optional — rules that need them skip silently when
    absent (``driver`` enables the closure-capture checks of ALS702)."""

    def __init__(self, root: LogicalNode, annotated: AnnotatedPlan,
                 config: Any = None, compiled: Any = None,
                 claimed_sharding: Partitionability | None = None,
                 driver: Any = None) -> None:
        self.root = root
        self.annotated = annotated
        self.config = config
        self.compiled = compiled
        self.claimed_sharding = claimed_sharding
        self.driver = driver
        self._paths: dict[int, str] = {}
        self._index_paths(root, "$")

    def _index_paths(self, node: LogicalNode, path: str) -> None:
        self._paths[id(node)] = path
        for slot, child in enumerate(node.children):
            self._index_paths(child, f"{path}/{type(child).__name__}[{slot}]")

    def path_of(self, node: LogicalNode) -> str:
        return self._paths.get(id(node), f"<detached {node.describe()}>")


# ---------------------------------------------------------------------------
# Independent pattern re-derivation (the heart of rule UP001).
#
# This deliberately does NOT call node.derive_pattern(): it is a second
# implementation of Section 5.2's five rules, written against the paper, so
# a bug (or a tampered annotation) in the production path cannot hide.
# ---------------------------------------------------------------------------

def rederive_patterns(root: LogicalNode) -> dict[int, UpdatePattern]:
    """Re-derive the update pattern of every edge from the paper's rules."""
    patterns: dict[int, UpdatePattern] = {}
    lags: dict[int, float | None] = {}
    for node in root.walk():
        child = [patterns[id(c)] for c in node.children]
        if isinstance(node, WindowScan):
            # Leaves: WKS out of a sliding window, MONOTONIC otherwise.
            derived = WKS if node.stream.window is not None else MONOTONIC
        elif isinstance(node, SharedScan):
            # A shared cut replays its source subtree's output verbatim:
            # re-derive from the hidden source (rule UP002 compares this
            # against the scan's declared pattern).
            derived = rederive_patterns(node.source)[id(node.source)]
        elif isinstance(node, (Select, Project, Rename)):
            derived = child[0]                       # Rule 1 (unary WKS ops)
        elif isinstance(node, NRRJoin):
            derived = child[0]                       # Rule 1 (Section 5.4.2)
        elif isinstance(node, Union):
            derived = most_complex(child)            # Rule 2
        elif isinstance(node, (Join, Intersect, DupElim)):
            derived = STR if STR in child else WK    # Rule 3
        elif isinstance(node, GroupBy):
            derived = WK                             # Rule 4
        elif isinstance(node, (Negation, RelationJoin)):
            derived = STR                            # Rule 5
        else:  # unknown algebra: be conservative
            derived = most_complex(child) if child else STR
        # Rule 2 refinement: a merge-union of same-pattern WKS inputs is
        # only WKS when both inputs share one lifetime offset; mixed window
        # sizes interleave expirations, which is weak, not weakest.
        lag = _uniform_lag(node, lags)
        if isinstance(node, Union) and derived is WKS and lag is None:
            derived = WK
        patterns[id(node)] = derived
        lags[id(node)] = lag
    return patterns


# ---------------------------------------------------------------------------
# UP — update-pattern annotation rules
# ---------------------------------------------------------------------------

def rule_up001_pattern_rederivation(ctx: LintContext) -> Iterator[Diagnostic]:
    """UP001: every annotated pattern must equal its independent
    re-derivation from the five propagation rules (Section 5.2)."""
    derived = rederive_patterns(ctx.root)
    for node in ctx.root.walk():
        annotated = ctx.annotated.pattern_of(node)
        expected = derived[id(node)]
        if annotated is not expected:
            yield Diagnostic(
                "UP001", SEVERITY_ERROR, ctx.path_of(node),
                f"{node.describe()} is annotated {annotated} but Rules 1-5 "
                f"re-derive {expected}",
                "re-annotate the plan with repro.core.annotate.annotate()",
            )


def rule_up002_shared_scan_pattern(ctx: LintContext) -> Iterator[Diagnostic]:
    """UP002: a SharedScan's declared pattern and lag must match what its
    source subtree actually produces (a lying cut corrupts every consumer's
    buffer choices downstream)."""
    for node in ctx.root.walk():
        if not isinstance(node, SharedScan):
            continue
        source_patterns = rederive_patterns(node.source)
        actual = source_patterns[id(node.source)]
        if node.pattern is not actual:
            yield Diagnostic(
                "UP002", SEVERITY_ERROR, ctx.path_of(node),
                f"shared cut {node.label!r} declares pattern {node.pattern} "
                f"but its source subtree produces {actual}",
                "rebuild the SharedScan from annotate(source) instead of a "
                "cached pattern",
            )
        source_lags: dict[int, float | None] = {}
        for sub in node.source.walk():
            source_lags[id(sub)] = _uniform_lag(sub, source_lags)
        actual_lag = source_lags[id(node.source)]
        if node.lag != actual_lag:
            yield Diagnostic(
                "UP002", SEVERITY_ERROR, ctx.path_of(node),
                f"shared cut {node.label!r} declares uniform lag {node.lag} "
                f"but its source subtree has lag {actual_lag}",
                "stamp the SharedScan with subtree_lag(source)",
            )


# ---------------------------------------------------------------------------
# BUF — physical buffer-choice rules (need a CompiledQuery)
# ---------------------------------------------------------------------------

def _buffers_of(ctx: LintContext
                ) -> Iterator[tuple[LogicalNode, str, Any,
                                    UpdatePattern | None]]:
    """Yield (node, label, buffer, feeding-pattern) for every operator state
    buffer of the compiled pipeline, unwrapping checked-mode monitors."""
    compiled = ctx.compiled
    if compiled is None:
        return
    for node in ctx.root.walk():
        op = compiled.ops.get(id(node))
        if op is None:
            continue
        for label, buffer in op.state_buffers():
            if buffer is None:
                continue
            inner = getattr(buffer, "inner", buffer)
            yield node, label, inner, _feeding_pattern(ctx, node, label)


def _feeding_pattern(ctx: LintContext, node: LogicalNode,
                     label: str) -> UpdatePattern | None:
    """Pattern of the edge feeding the named buffer, per strategies.py's
    buffer assignment (None when the buffer stores *output*, which follows
    the node's own pattern)."""
    annotated = ctx.annotated
    if isinstance(node, (Join, Intersect)):
        side = 0 if label == "left" else 1
        return annotated.pattern_of(node.children[side])
    if isinstance(node, DupElim):
        if label == "input":
            return annotated.pattern_of(node.child)
        return annotated.pattern_of(node)        # output buffer
    if isinstance(node, (GroupBy, RelationJoin)):
        return annotated.pattern_of(node.children[0])
    if isinstance(node, WindowScan):
        return annotated.pattern_of(node)
    return annotated.pattern_of(node)


def rule_buf101_fifo_requires_wks(ctx: LintContext) -> Iterator[Diagnostic]:
    """BUF101: a FIFO list may only hold state fed by a FIFO-expiring edge
    (MONOTONIC/WKS) — WK/STR input expires out of insertion order and would
    either corrupt the queue or trip its order guard (Section 5.3.2)."""
    for node, label, buffer, pattern in _buffers_of(ctx):
        if isinstance(buffer, FifoBuffer) and pattern is not None \
                and not pattern.expiration_is_fifo:
            yield Diagnostic(
                "BUF101", SEVERITY_ERROR, ctx.path_of(node),
                f"{node.describe()} stores its {label} state, fed by a "
                f"{pattern} edge, in a FIFO list; {pattern} expirations are "
                "not FIFO",
                "use a partitioned buffer (WK) or hash table (STR) for "
                "this edge",
            )


def rule_buf102_hash_requires_key(ctx: LintContext) -> Iterator[Diagnostic]:
    """BUF102: a hash-on-key buffer without a key function cannot locate the
    victim of a negative tuple in O(1) — its entire reason to exist."""
    for node, label, buffer, _pattern in _buffers_of(ctx):
        if isinstance(buffer, HashBuffer) and not buffer.has_index:
            yield Diagnostic(
                "BUF102", SEVERITY_ERROR, ctx.path_of(node),
                f"{node.describe()} stores its {label} state in a hash "
                "buffer with no key function",
                "construct the HashBuffer with an explicit key_of (or rely "
                "on its values_key default)",
            )


def rule_buf103_partition_sanity(ctx: LintContext) -> Iterator[Diagnostic]:
    """BUF103: a partitioned circular buffer's geometry must match the plan
    (span = the plan's maximum window span, partition count = the configured
    n_partitions >= 1, Figure 7) — a mis-sized ring mis-slots expirations."""
    compiled = ctx.compiled
    if compiled is None:
        return
    for node, label, buffer, _pattern in _buffers_of(ctx):
        if not isinstance(buffer, PartitionedBuffer):
            continue
        if buffer.n_partitions < 1:
            yield Diagnostic(
                "BUF103", SEVERITY_ERROR, ctx.path_of(node),
                f"{node.describe()} {label} state uses a partitioned buffer "
                f"with {buffer.n_partitions} partitions",
                "n_partitions must be >= 1",
            )
        if ctx.config is not None \
                and buffer.n_partitions != ctx.config.n_partitions:
            yield Diagnostic(
                "BUF103", SEVERITY_ERROR, ctx.path_of(node),
                f"{node.describe()} {label} state is partitioned into "
                f"{buffer.n_partitions} slots but the configuration asks "
                f"for {ctx.config.n_partitions}",
                "rebuild the buffer from the active ExecutionConfig",
            )
        if compiled.max_span is not None and buffer.span != compiled.max_span:
            yield Diagnostic(
                "BUF103", SEVERITY_ERROR, ctx.path_of(node),
                f"{node.describe()} {label} state covers span {buffer.span} "
                f"but the plan's maximum window span is {compiled.max_span}; "
                "tuples expiring later than the ring covers would wrap onto "
                "live partitions",
                "size the ring to the plan's largest window span",
            )


# ---------------------------------------------------------------------------
# RW — rewrite-legality rules (pairwise: original vs candidate)
# ---------------------------------------------------------------------------

def _leaf_signature(plan: LogicalNode) -> tuple[tuple[str, str], ...]:
    """Multiset of (stream, window) leaves — invariant under every legal
    rewrite in this optimizer (rewrites move operators, never windows)."""
    leaves: list[tuple[str, str]] = []
    for node in plan.walk():
        if isinstance(node, WindowScan):
            leaves.append((node.stream.name, repr(node.stream.window)))
        elif isinstance(node, SharedScan):
            leaves.extend(_leaf_signature(node.source))
    return tuple(sorted(leaves))


def _signature(plan: LogicalNode) -> str:
    parts = [plan.describe()]
    parts.extend(_signature(c) for c in plan.children)
    return "(" + " ".join(parts) + ")"


def rule_rw200_rewrite_preservation(original: LogicalNode,
                                    candidate: LogicalNode,
                                    ctx: LintContext) -> Iterator[Diagnostic]:
    """RW200: any legal rewrite preserves the output schema and the window
    leaves; a candidate that changes either cannot be answer-preserving."""
    if candidate.schema != original.schema:
        yield Diagnostic(
            "RW200", SEVERITY_ERROR, "$",
            f"rewrite changed the output schema: {list(original.schema.fields)}"
            f" -> {list(candidate.schema.fields)}",
            "reject the candidate; rewrites must be schema-preserving",
        )
    if _leaf_signature(candidate) != _leaf_signature(original):
        yield Diagnostic(
            "RW200", SEVERITY_ERROR, "$",
            "rewrite changed the window-leaf multiset "
            f"({_leaf_signature(original)} -> {_leaf_signature(candidate)})",
            "reject the candidate; rewrites move operators, never windows",
        )


def rule_rw201_negation_pull_up(original: LogicalNode,
                                candidate: LogicalNode,
                                ctx: LintContext) -> Iterator[Diagnostic]:
    """RW201: a negation sitting above a join — the *output* shape of the
    pull-up rewrite (A - B on k) >< C -> (A >< C) - B — is only equivalent
    to the pushed-down original when the negation attribute IS the join
    attribute (Section 5.4.2).  Re-proved structurally on the candidate:
    for every moved Negation-over-Join, the negation attribute must name
    the join key in the join's output schema."""
    original_negations = {
        _signature(n) for n in original.walk() if isinstance(n, Negation)
    }
    for node in candidate.walk():
        if not isinstance(node, Negation):
            continue
        if _signature(node) in original_negations:
            continue  # not moved by this rewrite; user-authored shape
        join = node.left
        if not isinstance(join, Join):
            continue
        legal = {
            _attr_after_join_name(join, join.left_attr, "left"),
            _attr_after_join_name(join, join.right_attr, "right"),
        }
        if node.left_attr not in legal:
            yield Diagnostic(
                "RW201", SEVERITY_ERROR, ctx.path_of(node),
                f"negation pull-up produced {node.describe()} over "
                f"{join.describe()}, but the negation attribute "
                f"{node.left_attr!r} is not the join key "
                f"({sorted(legal)}); the pull-up precondition of "
                "Section 5.4.2 fails and multiplicities change",
                "only pull a negation above a join when the join attribute "
                "equals the negation attribute",
            )


def rule_rw203_dupelim_push_down(original: LogicalNode,
                                 candidate: LogicalNode,
                                 ctx: LintContext) -> Iterator[Diagnostic]:
    """RW203: the push-down d(A >< B) -> d(A) >< d(B) must keep the join
    keys and prefixes of the join it descended through; a changed key joins
    different pairs and is not the same query."""
    original_joins = {
        _signature(n): n for n in original.walk()
        if isinstance(n, DupElim) and isinstance(n.child, Join)
    }
    if not original_joins:
        return
    for node in candidate.walk():
        if not isinstance(node, Join):
            continue
        left, right = node.children
        if not (isinstance(left, DupElim) and isinstance(right, DupElim)):
            continue
        # Which original d(A >< B) does this correspond to?  Match by the
        # undecorated join signature over the same children.
        rebuilt = DupElim(Join(left.child, right.child, node.left_attr,
                               node.right_attr, node.prefixes))
        if _signature(rebuilt) in original_joins:
            continue  # exact push-down of an original d-over-join: legal
        # A d(A) >< d(B) shape with no matching original: check whether a
        # key change is the reason.
        for source in original_joins.values():
            join = source.child
            same_children = (
                _signature(join.left) == _signature(left.child)
                and _signature(join.right) == _signature(right.child)
            )
            if same_children and (join.left_attr != node.left_attr
                                  or join.right_attr != node.right_attr):
                yield Diagnostic(
                    "RW203", SEVERITY_ERROR, ctx.path_of(node),
                    "duplicate-elimination push-down changed the join key: "
                    f"original joined on {join.left_attr} = "
                    f"{join.right_attr}, candidate on {node.left_attr} = "
                    f"{node.right_attr}",
                    "push d below the join without touching the join "
                    "predicate",
                )


def _attr_after_join_name(join: Join, attr: str, side: str) -> str:
    clashes = set(join.left.schema.fields) & set(join.right.schema.fields)
    if attr not in clashes:
        return attr
    prefix = join.prefixes[0] if side == "left" else join.prefixes[1]
    return f"{prefix}{attr}"


# ---------------------------------------------------------------------------
# SH — sharding-consistency rule
# ---------------------------------------------------------------------------

def rule_sh301_sharding_consistency(ctx: LintContext) -> Iterator[Diagnostic]:
    """SH301: a recorded sharding verdict must agree with a fresh
    re-derivation from the co-location analysis, and every routing key must
    name a real column of its stream at the recorded position — routing by
    a stale key silently mis-partitions matching tuples across shards."""
    claimed = ctx.claimed_sharding
    if claimed is None:
        return
    derived = analyze_partitionability(ctx.root)
    if claimed.shardable != derived.shardable:
        yield Diagnostic(
            "SH301", SEVERITY_ERROR, "$",
            f"recorded sharding verdict says shardable={claimed.shardable} "
            f"but re-analysis derives shardable={derived.shardable}"
            + (f" ({derived.reason})" if derived.reason else ""),
            "re-run analyze_partitionability on the executed plan",
        )
        return
    if not claimed.shardable:
        return
    streams = {leaf.stream.name: leaf.stream for leaf in ctx.root.leaves()}
    for name, key in claimed.keys.items():
        expected = derived.keys.get(name)
        if expected != key:
            yield Diagnostic(
                "SH301", SEVERITY_ERROR, "$",
                f"stream {name!r} is routed by "
                f"{key.describe()} but the co-location analysis demands "
                f"{expected.describe() if expected else 'no such stream'}",
                "route by the key the demand analysis derives",
            )
            continue
        stream = streams.get(name)
        if stream is not None and key.attr is not None:
            fields = stream.schema.fields
            if key.index is None or key.index >= len(fields) \
                    or fields[key.index] != key.attr:
                yield Diagnostic(
                    "SH301", SEVERITY_ERROR, "$",
                    f"routing key {key.attr!r}@{key.index} does not match "
                    f"stream {name!r}'s schema {list(fields)}",
                    "recompute the key index against the stream schema",
                )


# ---------------------------------------------------------------------------
# NR — NRR non-retroactivity rule
# ---------------------------------------------------------------------------

def rule_nr401_nrr_non_retroactivity(ctx: LintContext) -> Iterator[Diagnostic]:
    """NR401: nothing below an NRR join may retract past output — no
    retroactive relation join and no negation (both would push negative
    tuples into an operator that cannot process them, Section 5.4.2).
    Unlike annotation, this check sees *through* SharedScan cuts."""

    def strict_sources(node: LogicalNode) -> Iterator[LogicalNode]:
        for sub in node.walk():
            if isinstance(sub, (Negation, RelationJoin)):
                yield sub
            elif isinstance(sub, SharedScan):
                yield from strict_sources(sub.source)

    for node in ctx.root.walk():
        if not isinstance(node, NRRJoin):
            continue
        for offender in strict_sources(node.child):
            yield Diagnostic(
                "NR401", SEVERITY_ERROR, ctx.path_of(node),
                f"{node.describe()} has {offender.describe()} below it; "
                "retroactive deletions from that subplan would reach a "
                "non-retroactive join that cannot process negative tuples",
                "pull the negation/relation join above the NRR join",
            )


# ---------------------------------------------------------------------------
# DM — dead-machinery rules (warnings)
# ---------------------------------------------------------------------------

def rule_dm501_dead_negative_plumbing(ctx: LintContext) -> Iterator[Diagnostic]:
    """DM501: negative-tuple machinery configured or compiled above a plan
    with no strict subplan is dead weight — every deletion is already
    determined by exp timestamps (Section 3.1)."""
    if ctx.annotated.contains_strict():
        return
    config = ctx.config
    from ..engine.strategies import Mode, STR_NEGATIVE
    if config is not None and config.mode is Mode.UPA \
            and config.str_storage == STR_NEGATIVE:
        yield Diagnostic(
            "DM501", SEVERITY_WARNING, "$",
            "str_storage='negative' requests the hybrid negative-tuple "
            "scheme, but no edge of this plan is strict non-monotonic; the "
            "knob selects machinery that can never be exercised",
            "drop str_storage (auto) for negation-free plans",
        )
    compiled = ctx.compiled
    if compiled is not None and config is not None \
            and config.mode is Mode.UPA:
        for node, label, buffer, pattern in _buffers_of(ctx):
            if isinstance(buffer, HashBuffer) and pattern is not None \
                    and pattern is not STR:
                yield Diagnostic(
                    "DM501", SEVERITY_WARNING, ctx.path_of(node),
                    f"{node.describe()} keeps {label} state in a "
                    "negative-tuple hash table although its feeding edge "
                    f"is {pattern} under UPA: no negative can ever reach it",
                    "use the pattern-appropriate direct structure",
                )


# ---------------------------------------------------------------------------
# PRG — execution-program rules (need a CompiledQuery)
#
# The compiled query is the program the driver runs: its dispatch tables,
# routes and expiration participants are resolved at compile time and
# compiled into the driver's closures.  These rules re-prove that those
# tables agree with the plan, so a stale or tampered table cannot silently
# drop work (a missing dispatch entry loses arrivals; a missing expiration
# participant leaks state; a stateful fused prefix would bypass the
# expiration machinery entirely).
# ---------------------------------------------------------------------------

_RECOMPILE = "recompile the plan with engine.strategies.compile_plan"


def rule_prg601_dispatch_covers_edges(ctx: LintContext) -> Iterator[Diagnostic]:
    """PRG601: the dispatch tables must cover every leaf binding of every
    stream, and each table entry's fused prefix + generic suffix must
    reconstruct the compiled route to the root exactly — an edge the
    tables miss would silently drop every tuple routed along it."""
    compiled = ctx.compiled
    if compiled is None:
        return
    for stream, leaves in compiled.leaf_bindings.items():
        plans = compiled.dispatch.get(stream)
        if plans is None:
            yield Diagnostic(
                "PRG601", SEVERITY_ERROR, "$",
                f"stream {stream!r} has {len(leaves)} leaf binding(s) but "
                "no dispatch table in the execution program", _RECOMPILE,
            )
            continue
        if [plan.leaf for plan in plans] != leaves:
            yield Diagnostic(
                "PRG601", SEVERITY_ERROR, "$",
                f"stream {stream!r}'s dispatch table binds "
                f"{len(plans)} leaf(s) but the compile recorded "
                f"{len(leaves)} (or in a different order)", _RECOMPILE,
            )
            continue
        for plan in plans:
            route = compiled.routes.get(id(plan.leaf))
            if route is None:
                yield Diagnostic(
                    "PRG601", SEVERITY_ERROR, "$",
                    f"stream {stream!r} dispatches into a leaf with no "
                    "compiled route to the root", _RECOMPILE,
                )
                continue
            flattened = [op for op, _kind, _arg in plan.prefix]
            flattened.extend(parent for parent, _slot in plan.suffix)
            expected = [parent for parent, _slot in route]
            if flattened != expected:
                yield Diagnostic(
                    "PRG601", SEVERITY_ERROR, "$",
                    f"stream {stream!r}'s dispatch plan walks "
                    f"{len(flattened)} operator(s) but the compiled route "
                    f"has {len(expected)}; fused prefix + suffix must "
                    "reconstruct the route exactly", _RECOMPILE,
                )
    extra = set(compiled.dispatch) - set(compiled.leaf_bindings)
    if extra:
        yield Diagnostic(
            "PRG601", SEVERITY_ERROR, "$",
            f"the program dispatches stream(s) {sorted(extra)} that have "
            "no leaf binding in the compiled pipeline", _RECOMPILE,
        )


def rule_prg602_expiration_participants(ctx: LintContext
                                        ) -> Iterator[Diagnostic]:
    """PRG602: the eager expiration participants must match an
    independent re-derivation from operator-observable classification
    (Section 5.2's eager/lazy split): materialized windows and self-expiring
    negations (general or FIFO) are eager; joins and intersections are
    lazily maintained (their WKS-fed state is purged on probe); the eager
    list runs in bottom-up plan order.  (Eager and lazy membership are not exclusive —
    a standard dup-elim expires its output eagerly while its input buffer
    purges on the lazy grid.)"""
    compiled = ctx.compiled
    if compiled is None:
        return
    from ..operators.join import JoinOp
    from ..operators.negation import NegationFifoOp, NegationOp
    from ..operators.stateless import WindowOp

    eager_ids = {id(op) for op in compiled.expire_ops}
    walk_order = {id(compiled.ops[id(node)]): index
                  for index, node in enumerate(ctx.root.walk())
                  if id(node) in compiled.ops}
    positions = [walk_order[id(op)] for op in compiled.expire_ops
                 if id(op) in walk_order]
    if positions != sorted(positions):
        yield Diagnostic(
            "PRG602", SEVERITY_ERROR, "$",
            "the eager expiration program is not in bottom-up plan order; "
            "expiring parents before children re-derives deltas from "
            "already-purged state", _RECOMPILE,
        )
    for node in ctx.root.walk():
        op = compiled.ops.get(id(node))
        if op is None:
            continue
        path = ctx.path_of(node)
        if isinstance(op, WindowOp) and op._store is not None \
                and id(op) not in eager_ids:
            yield Diagnostic(
                "PRG602", SEVERITY_ERROR, path,
                f"{node.describe()} materializes its window but is missing "
                "from the eager expiration program; its state would never "
                "be purged and no negative tuples would be emitted",
                _RECOMPILE,
            )
        if isinstance(op, WindowOp) and op._store is None \
                and id(op) in eager_ids:
            yield Diagnostic(
                "PRG602", SEVERITY_ERROR, path,
                f"{node.describe()} does not materialize a window store "
                "but participates in the eager expiration program",
                _RECOMPILE,
            )
        if isinstance(op, (NegationOp, NegationFifoOp)):
            if op._self_expire and id(op) not in eager_ids:
                yield Diagnostic(
                    "PRG602", SEVERITY_ERROR, path,
                    f"{node.describe()} self-expires (UPA/hybrid) but is "
                    "missing from the eager expiration program", _RECOMPILE,
                )
            if not op._self_expire and id(op) in eager_ids:
                yield Diagnostic(
                    "PRG602", SEVERITY_ERROR, path,
                    f"{node.describe()} relies on upstream negative tuples "
                    "(NT) but participates in the eager expiration program",
                    _RECOMPILE,
                )
        if isinstance(op, JoinOp) and id(op) in eager_ids:
            yield Diagnostic(
                "PRG602", SEVERITY_ERROR, path,
                f"{node.describe()} is lazily maintained (state purged on "
                "probe and on the lazy grid) but appears in the eager "
                "expiration program", _RECOMPILE,
            )


def rule_prg603_fused_prefixes_stateless(ctx: LintContext
                                         ) -> Iterator[Diagnostic]:
    """PRG603: every operator fused into a dispatch prefix must be
    stateless — expose a kernel, hold zero state, and take no part
    in expiration.  Fusing a stateful operator would evaluate it outside
    the expiration machinery, silently leaking (or never building) its
    state."""
    compiled = ctx.compiled
    if compiled is None:
        return
    eager_ids = {id(op) for op in compiled.expire_ops}
    lazy_ids = {id(op) for op in compiled.lazy_ops}
    for stream, plans in compiled.dispatch.items():
        for plan in plans:
            for op, kind, _arg in plan.prefix:
                where = f"$ [dispatch:{stream}]"
                if op.kernel() is None:
                    yield Diagnostic(
                        "PRG603", SEVERITY_ERROR, where,
                        f"fused prefix entry {type(op).__name__} (kind "
                        f"{kind!r}) exposes no kernel; only "
                        "kernel-bearing operators may be fused", _RECOMPILE,
                    )
                if op.state_size() != 0:
                    yield Diagnostic(
                        "PRG603", SEVERITY_ERROR, where,
                        f"fused prefix entry {type(op).__name__} holds "
                        f"{op.state_size()} tuple(s) of state; fused "
                        "prefixes must be stateless",
                        "dispatch stateful operators through the generic "
                        "suffix route",
                    )
                if id(op) in eager_ids or id(op) in lazy_ids:
                    yield Diagnostic(
                        "PRG603", SEVERITY_ERROR, where,
                        f"fused prefix entry {type(op).__name__} "
                        "participates in expiration; fusing it would run "
                        "it outside the expiration machinery",
                        "dispatch expiring operators through the generic "
                        "suffix route",
                    )


def rule_dm502_redundant_distinct(ctx: LintContext) -> Iterator[Diagnostic]:
    """DM502: duplicate elimination over input that is already
    duplicate-free (the output of another duplicate elimination, possibly
    behind a rename or shared cut) can only burn state."""

    def dedup_root(node: LogicalNode) -> bool:
        if isinstance(node, DupElim):
            return True
        if isinstance(node, Rename):
            return dedup_root(node.child)
        if isinstance(node, SharedScan):
            return dedup_root(node.source)
        return False

    for node in ctx.root.walk():
        if isinstance(node, DupElim) and dedup_root(node.child):
            yield Diagnostic(
                "DM502", SEVERITY_WARNING, ctx.path_of(node),
                "DISTINCT over input that is already duplicate-free; the "
                "outer operator stores every tuple to remove nothing",
                "drop the outer duplicate elimination",
            )


# Imported at the bottom on purpose: ownership.py / bounds.py import the
# Diagnostic/LintContext machinery defined above, so pulling their rule
# callables in any earlier would be circular.
from .bounds import (  # noqa: E402
    rule_cst801_unbounded_state,
    rule_cst802_buffer_fits_bound,
    rule_cst803_certificate_monitored,
)
from .ownership import (  # noqa: E402
    rule_als701_exclusive_ownership,
    rule_als702_stale_captures,
    rule_als703_module_level_sinks,
)

#: Plan-level rules run by lint(); (id, callable) in catalogue order.
PLAN_RULES = (
    ("UP001", rule_up001_pattern_rederivation),
    ("UP002", rule_up002_shared_scan_pattern),
    ("BUF101", rule_buf101_fifo_requires_wks),
    ("BUF102", rule_buf102_hash_requires_key),
    ("BUF103", rule_buf103_partition_sanity),
    ("SH301", rule_sh301_sharding_consistency),
    ("NR401", rule_nr401_nrr_non_retroactivity),
    ("DM501", rule_dm501_dead_negative_plumbing),
    ("DM502", rule_dm502_redundant_distinct),
    ("PRG601", rule_prg601_dispatch_covers_edges),
    ("PRG602", rule_prg602_expiration_participants),
    ("PRG603", rule_prg603_fused_prefixes_stateless),
    ("ALS701", rule_als701_exclusive_ownership),
    ("ALS702", rule_als702_stale_captures),
    ("ALS703", rule_als703_module_level_sinks),
    ("CST801", rule_cst801_unbounded_state),
    ("CST802", rule_cst802_buffer_fits_bound),
    ("CST803", rule_cst803_certificate_monitored),
)

#: Pairwise rules run by lint_rewrite(original, candidate).
REWRITE_RULES = (
    ("RW200", rule_rw200_rewrite_preservation),
    ("RW201", rule_rw201_negation_pull_up),
    ("RW203", rule_rw203_dupelim_push_down),
)

#: The full catalogue (for docs and the CLI's --rules listing).
ALL_RULES = tuple(rule for rule, _fn in PLAN_RULES + REWRITE_RULES)
