"""Logical plan algebra for continuous queries.

The allowed logical operators are those of Section 2.1 — projection,
selection, union, join, intersection, duplicate elimination, group-by and
negation — plus the two relation joins of Section 4.1 (the retroactive
``RelationJoin`` / R-join and the non-retroactive ``NRRJoin``).  Leaves are
sliding windows over base streams (or the unbounded streams themselves).

Every node knows how to derive its output update pattern from its inputs'
patterns, implementing the five propagation rules of Section 5.2; plans are
annotated bottom-up by :func:`repro.core.annotate.annotate`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Sequence

from ..errors import PlanError, SchemaError
from ..streams.relation import NRR, Relation
from ..streams.stream import StreamDef
from .patterns import (
    STR,
    UpdatePattern,
    WKS,
    MONOTONIC,
    rule1_unary_weakest,
    rule2_binary_weakest,
    rule3_weak,
    rule4_groupby,
    rule5_strict,
)
from .tuples import Schema


@dataclasses.dataclass(frozen=True)
class Predicate:
    """A selection predicate with the metadata the optimizer needs.

    ``attrs`` lists the attribute names the predicate references (used for
    push-down legality), ``fn`` evaluates the predicate over a value tuple
    aligned with the operator's input schema, ``selectivity`` is the
    estimated fraction of tuples that pass (used by the cost model), and
    ``label`` is a human-readable description for explain output.
    """

    attrs: tuple[str, ...]
    fn: Callable[[tuple], bool]
    label: str = "<predicate>"
    selectivity: float = 0.5

    def bind(self, schema: Schema) -> Callable[[tuple], bool]:
        """Validate that the schema provides the referenced attributes and
        return the evaluation function."""
        for attr in self.attrs:
            schema.index_of(attr)
        return self.fn

    def __repr__(self) -> str:
        return f"Predicate({self.label})"


def attr_equals(attr: str, value: Any, selectivity: float = 0.5) -> "PredicateBuilder":
    """Convenience predicate ``attr = value`` (selectivity hint optional).

    The attribute index is resolved lazily against the input schema when the
    Select node is constructed, so the same predicate can be reused under
    different schemas.
    """
    return PredicateBuilder(
        attrs=(attr,),
        make=lambda schema: (lambda values, i=schema.index_of(attr): values[i] == value),
        label=f"{attr} = {value!r}",
        selectivity=selectivity,
    )


@dataclasses.dataclass(frozen=True)
class PredicateBuilder:
    """A schema-independent predicate factory (see :func:`attr_equals`)."""

    attrs: tuple[str, ...]
    make: Callable[[Schema], Callable[[tuple], bool]]
    label: str
    selectivity: float = 0.5

    def against(self, schema: Schema) -> Predicate:
        return Predicate(self.attrs, self.make(schema), self.label, self.selectivity)


@dataclasses.dataclass(frozen=True)
class AggregateSpec:
    """One aggregate of a group-by: kind ∈ {count,sum,avg,min,max}."""

    kind: str
    attr: str | None  # None only for count
    alias: str

    KINDS = ("count", "sum", "avg", "min", "max", "var", "stddev")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise PlanError(f"unknown aggregate kind {self.kind!r}")
        if self.kind != "count" and self.attr is None:
            raise PlanError(f"aggregate {self.kind} requires an attribute")


class LogicalNode:
    """Base class of all logical plan nodes."""

    #: child plan nodes, in input order
    children: tuple["LogicalNode", ...] = ()

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        """Output update pattern given the input patterns (Rules 1–5)."""
        raise NotImplementedError

    def with_children(self, children: Sequence["LogicalNode"]) -> "LogicalNode":
        """Copy of this node over different children (used by rewrites)."""
        raise NotImplementedError

    # -- generic tree helpers -------------------------------------------------

    def walk(self):
        """Yield every node of the subtree, children before parents."""
        for child in self.children:
            yield from child.walk()
        yield self

    def leaves(self) -> list["WindowScan"]:
        return [n for n in self.walk() if isinstance(n, WindowScan)]

    def describe(self) -> str:
        """One-line label used by explain output."""
        return type(self).__name__

    def __repr__(self) -> str:
        return self.describe()


class WindowScan(LogicalNode):
    """Leaf: a base stream, possibly bounded by a sliding window.

    Emits WKS if windowed (individual windows expire FIFO, Section 3.1) and
    MONOTONIC for an unbounded stream.
    """

    def __init__(self, stream: StreamDef):
        self.stream = stream

    @property
    def schema(self) -> Schema:
        return self.stream.schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return WKS if self.stream.window is not None else MONOTONIC

    def with_children(self, children: Sequence[LogicalNode]) -> "WindowScan":
        if children:
            raise PlanError("WindowScan takes no children")
        return self

    def describe(self) -> str:
        win = self.stream.window
        suffix = f"[{win}]" if win is not None else "[unbounded]"
        return f"Window({self.stream.name}{suffix})"


class Select(LogicalNode):
    """Selection (stateless, Rule 1)."""

    def __init__(self, child: LogicalNode, predicate: Predicate | PredicateBuilder):
        if isinstance(predicate, PredicateBuilder):
            predicate = predicate.against(child.schema)
        predicate.bind(child.schema)
        self.children = (child,)
        self.predicate = predicate

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return rule1_unary_weakest(child_patterns[0])

    def with_children(self, children: Sequence[LogicalNode]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def describe(self) -> str:
        return f"Select({self.predicate.label})"


class Project(LogicalNode):
    """Projection (stateless, Rule 1).  Bag semantics: no dedup."""

    def __init__(self, child: LogicalNode, attrs: Sequence[str]):
        self.children = (child,)
        self.attrs = tuple(attrs)
        self._schema = child.schema.project(self.attrs)
        self._indices = child.schema.indices_of(self.attrs)

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return rule1_unary_weakest(child_patterns[0])

    def with_children(self, children: Sequence[LogicalNode]) -> "Project":
        (child,) = children
        return Project(child, self.attrs)

    def describe(self) -> str:
        return f"Project({', '.join(self.attrs)})"


class Rename(LogicalNode):
    """Attribute renaming (stateless, Rule 1) — relational ρ.

    Values are untouched; only the schema changes.  Useful for aligning
    schemas before Union/Intersect and for unprefixing join outputs.
    """

    def __init__(self, child: LogicalNode, names: Sequence[str]):
        if len(names) != len(child.schema):
            raise SchemaError(
                f"rename needs {len(child.schema)} names, got {len(names)}"
            )
        self.children = (child,)
        self.names = tuple(names)
        self._schema = Schema(self.names)

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self._schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return rule1_unary_weakest(child_patterns[0])

    def with_children(self, children: Sequence[LogicalNode]) -> "Rename":
        (child,) = children
        return Rename(child, self.names)

    def describe(self) -> str:
        return f"Rename({', '.join(self.names)})"


class Union(LogicalNode):
    """Non-blocking merge union of two inputs with equal schemas (Rule 2)."""

    def __init__(self, left: LogicalNode, right: LogicalNode):
        if left.schema != right.schema:
            raise SchemaError(
                f"union inputs must share a schema: {left.schema} vs {right.schema}"
            )
        self.children = (left, right)

    @property
    def schema(self) -> Schema:
        return self.children[0].schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return rule2_binary_weakest(child_patterns[0], child_patterns[1])

    def with_children(self, children: Sequence[LogicalNode]) -> "Union":
        left, right = children
        return Union(left, right)


class Join(LogicalNode):
    """Sliding-window equi-join (weak non-monotonic, Rule 3)."""

    def __init__(self, left: LogicalNode, right: LogicalNode,
                 left_attr: str, right_attr: str,
                 prefixes: tuple[str, str] = ("l_", "r_")):
        left.schema.index_of(left_attr)
        right.schema.index_of(right_attr)
        self.children = (left, right)
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.prefixes = prefixes
        clashes = set(left.schema.fields) & set(right.schema.fields)
        self._schema = left.schema.concat(
            right.schema, prefixes=prefixes if clashes else None
        )

    @property
    def left(self) -> LogicalNode:
        return self.children[0]

    @property
    def right(self) -> LogicalNode:
        return self.children[1]

    @property
    def schema(self) -> Schema:
        return self._schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return rule3_weak(*child_patterns)

    def with_children(self, children: Sequence[LogicalNode]) -> "Join":
        left, right = children
        return Join(left, right, self.left_attr, self.right_attr, self.prefixes)

    def describe(self) -> str:
        return f"Join({self.left_attr} = {self.right_attr})"


class Intersect(LogicalNode):
    """Window intersection: equi-join on all attributes, keeping the left
    tuple's values (weak non-monotonic, Rule 3).  Bag semantics: each
    matching (left, right) pair yields one result."""

    def __init__(self, left: LogicalNode, right: LogicalNode):
        if left.schema != right.schema:
            raise SchemaError(
                f"intersect inputs must share a schema: "
                f"{left.schema} vs {right.schema}"
            )
        self.children = (left, right)

    @property
    def schema(self) -> Schema:
        return self.children[0].schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return rule3_weak(*child_patterns)

    def with_children(self, children: Sequence[LogicalNode]) -> "Intersect":
        left, right = children
        return Intersect(left, right)


class DupElim(LogicalNode):
    """Duplicate elimination over the full tuple value (Rule 3).

    At all times the output contains exactly one tuple per distinct value
    present in the input window (Section 2.1, Figure 2).  The physical layer
    picks the paper's standard implementation for STR input and the improved
    δ operator (Section 5.3.1) for WKS/WK input.
    """

    def __init__(self, child: LogicalNode):
        self.children = (child,)

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return rule3_weak(child_patterns[0])

    def with_children(self, children: Sequence[LogicalNode]) -> "DupElim":
        (child,) = children
        return DupElim(child)

    def describe(self) -> str:
        return "DupElim"


class GroupBy(LogicalNode):
    """Group-by with incremental aggregates (always WK output, Rule 4).

    Aggregation without grouping is group-by with an empty key list (a single
    global group), as in Section 2.1.
    """

    def __init__(self, child: LogicalNode, keys: Sequence[str],
                 aggregates: Sequence[AggregateSpec]):
        if not aggregates:
            raise PlanError("GroupBy requires at least one aggregate")
        for key in keys:
            child.schema.index_of(key)
        for agg in aggregates:
            if agg.attr is not None:
                child.schema.index_of(agg.attr)
        names = tuple(keys) + tuple(a.alias for a in aggregates)
        self.children = (child,)
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)
        self._schema = Schema(names)

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self._schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return rule4_groupby(child_patterns[0])

    def with_children(self, children: Sequence[LogicalNode]) -> "GroupBy":
        (child,) = children
        return GroupBy(child, self.keys, self.aggregates)

    def describe(self) -> str:
        aggs = ", ".join(f"{a.kind}({a.attr or '*'})" for a in self.aggregates)
        return f"GroupBy({', '.join(self.keys) or 'ALL'}; {aggs})"


class Negation(LogicalNode):
    """Bag negation on one attribute (strict non-monotonic, Rule 5).

    Output per Equation 1: for each distinct value v of the negation
    attribute, the answer contains max(v1 − v2, 0) tuples *from the left
    input*, where v1/v2 count tuples with value v in the left/right inputs.
    """

    def __init__(self, left: LogicalNode, right: LogicalNode,
                 left_attr: str, right_attr: str | None = None):
        right_attr = right_attr if right_attr is not None else left_attr
        left.schema.index_of(left_attr)
        right.schema.index_of(right_attr)
        self.children = (left, right)
        self.left_attr = left_attr
        self.right_attr = right_attr

    @property
    def left(self) -> LogicalNode:
        return self.children[0]

    @property
    def right(self) -> LogicalNode:
        return self.children[1]

    @property
    def schema(self) -> Schema:
        return self.children[0].schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        return rule5_strict(*child_patterns)

    def with_children(self, children: Sequence[LogicalNode]) -> "Negation":
        left, right = children
        return Negation(left, right, self.left_attr, self.right_attr)

    def describe(self) -> str:
        return f"Negation({self.left_attr} = {self.right_attr})"


class SharedScan(LogicalNode):
    """Leaf standing in for a shared subplan's output stream.

    The shared multi-query planner (:mod:`repro.engine.sharing`) replaces a
    common subtree with a ``SharedScan`` carrying the subtree and its
    structural fingerprint.  At runtime a single shared producer pipeline
    evaluates the subtree once and fans its output stream (insertions
    *and* negative tuples) out to every consumer's port, so the residual
    plan above the scan observes exactly the tuple stream it would have
    observed had the subtree been compiled privately.

    The cut stores nothing it could get wrong about ``source``:
    annotation reads the source's update pattern and uniform lag through
    it, and compilation consults its window leaves, so residual-plan
    decisions (WKS/WK, NRR-join legality, maximum span, time domain) are
    unchanged by the cut.
    """

    def __init__(self, source: LogicalNode, fingerprint: str, *,
                 label: str = "S?"):
        self.source = source
        self.fingerprint = fingerprint
        self.label = label

    @property
    def schema(self) -> Schema:
        return self.source.schema

    @property
    def group_keys(self) -> int | None:
        """Number of grouping keys when the shared subtree is a group-by
        (whose replacement-keyed output needs a group view), else None."""
        source = self.source
        return len(source.keys) if isinstance(source, GroupBy) else None

    def source_leaves(self) -> list["WindowScan"]:
        """Window leaves of the replaced subtree (for window inspection)."""
        return self.source.leaves()

    def with_children(self, children: Sequence[LogicalNode]) -> "SharedScan":
        if children:
            raise PlanError("SharedScan takes no children")
        return self

    def describe(self) -> str:
        return f"Shared[{self.label}]({self.source.describe()})"


class NRRJoin(LogicalNode):
    """Join of a stream/window with a non-retroactive relation (⋈_NRR).

    Only arrivals on the streaming input trigger probing; NRR updates never
    retract or create results.  Rule 1: the output pattern equals the
    input's.  Section 5.4.2 forbids STR input (the join cannot process
    negative tuples); this is checked during annotation.
    """

    def __init__(self, child: LogicalNode, nrr: NRR,
                 left_attr: str, rel_attr: str,
                 prefixes: tuple[str, str] = ("l_", "r_")):
        if not isinstance(nrr, NRR):
            raise PlanError("NRRJoin requires an NRR; use RelationJoin for "
                            "retroactive relations")
        child.schema.index_of(left_attr)
        nrr.schema.index_of(rel_attr)
        self.children = (child,)
        self.nrr = nrr
        self.left_attr = left_attr
        self.rel_attr = rel_attr
        self.prefixes = prefixes
        clashes = set(child.schema.fields) & set(nrr.schema.fields)
        self._schema = child.schema.concat(
            nrr.schema, prefixes=prefixes if clashes else None
        )

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self._schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        if child_patterns[0] is STR:
            raise PlanError(
                "the input to an NRR-join cannot be strict non-monotonic "
                "(Section 5.4.2); pull the negation above the join"
            )
        return rule1_unary_weakest(child_patterns[0])

    def with_children(self, children: Sequence[LogicalNode]) -> "NRRJoin":
        (child,) = children
        return NRRJoin(child, self.nrr, self.left_attr, self.rel_attr,
                       self.prefixes)

    def describe(self) -> str:
        return f"NRRJoin({self.left_attr} = {self.nrr.name}.{self.rel_attr})"


class RelationJoin(LogicalNode):
    """Join of a window with an ordinary, retroactively-updated relation (⋈_R).

    Insertions into the table join against previously arrived (still live)
    window tuples, and deletions retract previously reported results with
    negative tuples — so the output is always STR (Rule 5), and the windowed
    input must be stored by the operator.
    """

    def __init__(self, child: LogicalNode, relation: Relation,
                 left_attr: str, rel_attr: str,
                 prefixes: tuple[str, str] = ("l_", "r_")):
        if isinstance(relation, NRR):
            raise PlanError("RelationJoin is for retroactive relations; "
                            "use NRRJoin for NRRs")
        child.schema.index_of(left_attr)
        relation.schema.index_of(rel_attr)
        self.children = (child,)
        self.relation = relation
        self.left_attr = left_attr
        self.rel_attr = rel_attr
        self.prefixes = prefixes
        clashes = set(child.schema.fields) & set(relation.schema.fields)
        self._schema = child.schema.concat(
            relation.schema, prefixes=prefixes if clashes else None
        )

    @property
    def child(self) -> LogicalNode:
        return self.children[0]

    @property
    def schema(self) -> Schema:
        return self._schema

    def derive_pattern(self, child_patterns: Sequence[UpdatePattern]) -> UpdatePattern:
        if child_patterns[0] is STR:
            raise PlanError(
                "the input to an R-join cannot be strict non-monotonic "
                "(Section 5.4.2)"
            )
        return rule5_strict(child_patterns[0])

    def with_children(self, children: Sequence[LogicalNode]) -> "RelationJoin":
        (child,) = children
        return RelationJoin(child, self.relation, self.left_attr,
                            self.rel_attr, self.prefixes)

    def describe(self) -> str:
        return (
            f"RelationJoin({self.left_attr} = "
            f"{self.relation.name}.{self.rel_attr})"
        )
