"""Static verification rules for update-pattern annotations and plans.

The rules check what no run of the engine shows: the annotations,
rewrites, plans and configurations the engine is *given*, and the few
properties of its own compile output that change no answer.

* the five pattern-propagation rules of Section 5.2 (plus the Rule 2 lag
  refinement for mixed-window unions) are re-derived by a second, separate
  implementation and cross-checked against :mod:`repro.core.annotate`,
  and every shared cut's stamped lag against its source;
* partitioned rings are checked against the plan's window span
  (Figure 7) — a mis-sized ring still purges exactly, so only this rule
  sees it;
* the optimizer's two update-pattern heuristics — negation pull-up and
  duplicate-elimination push-down (Section 5.4.2) — have their
  preconditions re-proved on the *output* plan, not trusted;
* non-retroactivity of NRR joins is verified structurally, looking
  *through* :class:`~repro.core.plan.SharedScan` cuts that annotation
  cannot see past;
* dead machinery — duplicate elimination over provably duplicate-free
  input — is flagged as a warning;
* state nothing ever purges is rejected unless the configuration opts in
  (CST801, :mod:`repro.analysis.bounds`);
* the eager expiration participants run bottom-up (PRG602), and the
  driver's compiled closures capture no plan node (ALS702,
  :mod:`repro.analysis.ownership`).

The rest of the engine's own compile output (buffer choices, dispatch
tables, expiration membership, buffer aliasing) is held to the
Definition 1 oracle by the test suite instead: a mutation audit found
those defect classes killed there (RESULTS.md, "lint audit").

Each rule is a generator over :class:`Diagnostic` objects; the catalogue at
the bottom of this module is what :func:`repro.analysis.planlint.lint`
executes.  Rule identifiers are stable API (tests and docs reference them).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator

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
    """Everything a rule may inspect.  ``config``, ``compiled`` and
    ``driver`` are optional — rules that need them skip silently when
    absent (``driver`` enables the closure-capture check of ALS702)."""

    def __init__(self, root: LogicalNode, annotated: AnnotatedPlan,
                 config: Any = None, compiled: Any = None,
                 driver: Any = None) -> None:
        self.root = root
        self.annotated = annotated
        self.config = config
        self.compiled = compiled
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
            # re-derive from the hidden source (annotate trusts the scan's
            # declared pattern, so UP001 catches a cut that lies).
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
    """UP002: a SharedScan's declared uniform lag must match its source
    subtree's.  A wrong lag flips the Rule 2 WKS/WK decision of a union
    above the cut without changing any answer, so no run reports it (a
    wrong declared *pattern* is UP001's: the re-derivation reads the
    source, annotation reads the cut)."""
    for node in ctx.root.walk():
        if not isinstance(node, SharedScan):
            continue
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
# BUF — partitioned-ring geometry (needs a CompiledQuery); the buffer walk
# is shared with the CST8xx certificate
# ---------------------------------------------------------------------------

def _buffers_of(ctx: LintContext
                ) -> Iterator[tuple[LogicalNode, str, Any,
                                    UpdatePattern | None]]:
    """Yield (node, label, buffer, feeding-pattern) for every operator state
    buffer of the compiled pipeline."""
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
            yield node, label, buffer, _feeding_pattern(ctx, node, label)


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
    return annotated.pattern_of(node)


def rule_buf103_partition_sanity(ctx: LintContext) -> Iterator[Diagnostic]:
    """BUF103: a partitioned circular buffer's span must be the plan's
    maximum window span (Figure 7).  The ring's per-slot marks keep purges
    exact at any span, so a mis-sized ring changes no answer — it only
    wraps tuples onto live slots and costs time, which no run reports."""
    compiled = ctx.compiled
    if compiled is None or compiled.max_span is None:
        return
    for node, label, buffer, _pattern in _buffers_of(ctx):
        if isinstance(buffer, PartitionedBuffer) \
                and buffer.span != compiled.max_span:
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


def rule_prg602_expiration_order(ctx: LintContext) -> Iterator[Diagnostic]:
    """PRG602: the eager expiration participants run in bottom-up plan
    order, so a parent's expiry pass never re-derives deltas from state
    its child already purged at the same instant.  No suite reverses it
    observably today (membership errors, by contrast, change answers and
    are the oracle's to catch)."""
    compiled = ctx.compiled
    if compiled is None:
        return
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
            "already-purged state",
            "recompile the plan with engine.strategies.compile_plan",
        )


# ---------------------------------------------------------------------------
# DM — dead-machinery rules (warnings)
# ---------------------------------------------------------------------------

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
from .bounds import rule_cst801_unbounded_state  # noqa: E402
from .ownership import rule_als702_stale_captures  # noqa: E402

#: Plan-level rules run by lint(); (id, callable) in catalogue order.
PLAN_RULES = (
    ("UP001", rule_up001_pattern_rederivation),
    ("UP002", rule_up002_shared_scan_pattern),
    ("BUF103", rule_buf103_partition_sanity),
    ("NR401", rule_nr401_nrr_non_retroactivity),
    ("DM502", rule_dm502_redundant_distinct),
    ("PRG602", rule_prg602_expiration_order),
    ("ALS702", rule_als702_stale_captures),
    ("CST801", rule_cst801_unbounded_state),
)

#: Pairwise rules run by lint_rewrite(original, candidate).
REWRITE_RULES = (
    ("RW200", rule_rw200_rewrite_preservation),
    ("RW201", rule_rw201_negation_pull_up),
    ("RW203", rule_rw203_dupelim_push_down),
)

#: The full catalogue (for docs and the CLI's --rules listing).
ALL_RULES = tuple(rule for rule, _fn in PLAN_RULES + REWRITE_RULES)
