"""Static verification rules for update-pattern annotations and plans.

Two rules remain, both about what the engine is *given*:

* **UP001** re-derives the five pattern-propagation rules of Section 5.2
  (plus the Rule 2 lag refinement for mixed-window unions) with a second,
  separate implementation and cross-checks every annotation of
  :mod:`repro.core.annotate` against it;
* **DM502** flags dead machinery in the user's own plan — duplicate
  elimination over provably duplicate-free input — as a warning.

Everything else the catalogue once re-proved is held elsewhere: a shared
cut stores no pattern or lag that could disagree with its source (the
annotator reads through it, and an NRR join over a cut hiding a negation
is annotation's :class:`~repro.errors.PlanError`), unbounded state is
rejected at compile time, optimizer rewrites are held to the Definition 1
oracle by the test suite, and the engine's own compile output (buffer
choices and geometry, expiration membership and order, dispatch tables,
closure captures) is covered by the oracle and differential suites or
cannot change what a run observes.  Two mutation audits have the kill
tables (RESULTS.md, "lint audit" and "lint audit, round 2").

Each rule is a generator over :class:`Diagnostic` objects; the catalogue at
the bottom of this module is what :func:`repro.analysis.planlint.lint`
executes.  Rule identifiers are stable API (tests and docs reference them).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

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
    """Everything a rule may inspect: the plan and its annotations."""

    def __init__(self, root: LogicalNode, annotated: AnnotatedPlan) -> None:
        self.root = root
        self.annotated = annotated
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
            # A shared cut replays its source subtree's output verbatim.
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


#: The rules run by lint(); (id, callable) in catalogue order.
PLAN_RULES = (
    ("UP001", rule_up001_pattern_rederivation),
    ("DM502", rule_dm502_redundant_distinct),
)

#: The full catalogue (for docs and the CLI's --rules listing).
ALL_RULES = tuple(rule for rule, _fn in PLAN_RULES)
