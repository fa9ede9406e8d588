"""Plan annotation with update patterns (Section 5.2).

"The first step towards update pattern awareness is to define the update
patterns of continuous queries based on the update characteristics of
individual operators. ... we begin by labeling all the edges originating at
the leaf nodes (i.e., sliding windows) with WKS and apply the following five
rules as appropriate."

:func:`annotate` computes the pattern flowing out of every node (bottom-up),
validating planning constraints along the way (e.g. no R-/NRR-join over STR
input).  :func:`explain` renders the annotated plan as an indented tree, the
textual equivalent of the paper's Figure 6.
"""

from __future__ import annotations

from . import plan as plan_mod
from .patterns import UpdatePattern
from .plan import LogicalNode


class AnnotatedPlan:
    """A logical plan plus the update pattern on each of its output edges."""

    def __init__(self, root: LogicalNode, patterns: dict[int, UpdatePattern]):
        self.root = root
        self._patterns = patterns  # keyed by id(node)

    def pattern_of(self, node: LogicalNode) -> UpdatePattern:
        return self._patterns[id(node)]

    @property
    def output_pattern(self) -> UpdatePattern:
        """Pattern of the query's final result."""
        return self.pattern_of(self.root)

    def contains_strict(self) -> bool:
        """True iff any edge in the plan carries STR patterns — such plans
        are incompatible with the plain direct approach (Section 3.1)."""
        return any(p is UpdatePattern.STR for p in self._patterns.values())

    def __repr__(self) -> str:
        return f"AnnotatedPlan(output={self.output_pattern})"


def annotate(root: LogicalNode) -> AnnotatedPlan:
    """Label every edge of the plan with its update pattern, bottom-up.

    One refinement beyond the literal Rules 1–5: Rule 2 calls a merge-union
    of WKS inputs WKS, which implicitly assumes the inputs share one window
    size.  Merging windows with *different* sizes interleaves lifetimes, so
    expiration is no longer FIFO in generation order — the output is weak,
    not weakest, non-monotonic.  The lag analysis below (the uniform
    ``exp − ts`` offset of a subtree, when one exists) detects this and
    upgrades such unions to WK, so a FIFO buffer is never chosen for them.
    """
    patterns: dict[int, UpdatePattern] = {}
    lags: dict[int, float | None] = {}
    for node in root.walk():  # children are always visited before parents
        if isinstance(node, plan_mod.SharedScan):
            # A shared cut replays its source's output verbatim, so it
            # carries the source's pattern; annotating the source also
            # applies its constraints (no NRR-join over STR input).
            pattern = annotate(node.source).output_pattern
        else:
            child_patterns = [patterns[id(c)] for c in node.children]
            pattern = node.derive_pattern(child_patterns)
        lag = _uniform_lag(node, lags)
        if (isinstance(node, plan_mod.Union)
                and pattern is UpdatePattern.WKS and lag is None):
            pattern = UpdatePattern.WK
        patterns[id(node)] = pattern
        lags[id(node)] = lag
    return AnnotatedPlan(root, patterns)


def _subtree_lag(root: LogicalNode) -> float | None:
    """The uniform ``exp − ts`` offset of ``root``'s output, if one exists."""
    lags: dict[int, float | None] = {}
    for node in root.walk():
        lags[id(node)] = _uniform_lag(node, lags)
    return lags[id(root)]


def _uniform_lag(node: LogicalNode,
                 lags: dict[int, float | None]) -> float | None:
    """The single ``exp − ts`` offset of every tuple this node emits, if one
    exists (None when lifetimes can vary across tuples)."""
    if isinstance(node, plan_mod.SharedScan):
        return _subtree_lag(node.source)
    if isinstance(node, plan_mod.WindowScan):
        window = node.stream.window
        return float("inf") if window is None else window.span
    if isinstance(node, (plan_mod.Select, plan_mod.Project,
                         plan_mod.Rename, plan_mod.DupElim)):
        return lags[id(node.children[0])]
    if isinstance(node, plan_mod.NRRJoin):
        return lags[id(node.children[0])]
    if isinstance(node, plan_mod.Union):
        left, right = (lags[id(c)] for c in node.children)
        return left if left is not None and left == right else None
    if isinstance(node, plan_mod.Negation):
        # Answers are left-input tuples with their original lifetimes.
        return lags[id(node.children[0])]
    return None  # joins/intersections/group-by mix lifetimes


def explain(root: LogicalNode, annotated: AnnotatedPlan | None = None) -> str:
    """Render the plan as an indented tree with pattern annotations."""
    annotated = annotated if annotated is not None else annotate(root)

    lines: list[str] = []

    def render(node: LogicalNode, depth: int) -> None:
        pattern = annotated.pattern_of(node)
        lines.append(f"{'  ' * depth}{node.describe()}  --[{pattern}]-->")
        for child in node.children:
            render(child, depth + 1)

    render(root, 0)
    return "\n".join(lines)


def explain_dot(root: LogicalNode,
                annotated: AnnotatedPlan | None = None) -> str:
    """Render the annotated plan as Graphviz DOT text.

    Edges are labelled with their update patterns and coloured by
    complexity (STR edges red, WK orange, WKS/monotonic black), making the
    paper's Figure 6 reproducible with ``dot -Tpng``.
    """
    annotated = annotated if annotated is not None else annotate(root)
    colors = {
        UpdatePattern.MONOTONIC: "black",
        UpdatePattern.WKS: "black",
        UpdatePattern.WK: "orange3",
        UpdatePattern.STR: "red3",
    }
    lines = ["digraph plan {", "  rankdir=BT;",
             '  node [shape=box, fontname="Helvetica"];']
    ids: dict[int, str] = {}
    for index, node in enumerate(root.walk()):
        ids[id(node)] = f"n{index}"
        label = node.describe().replace('"', r"\"")
        lines.append(f'  n{index} [label="{label}"];')
    for node in root.walk():
        pattern = annotated.pattern_of(node)
        for child in node.children:
            child_pattern = annotated.pattern_of(child)
            lines.append(
                f"  {ids[id(child)]} -> {ids[id(node)]} "
                f'[label="{child_pattern}", '
                f"color={colors[child_pattern]}];"
            )
    result = ids[id(root)]
    lines.append('  result [label="materialized result", shape=ellipse];')
    lines.append(
        f'  {result} -> result [label="{annotated.output_pattern}", '
        f"color={colors[annotated.output_pattern]}];"
    )
    lines.append("}")
    return "\n".join(lines)
