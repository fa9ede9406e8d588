"""Per-unit-time cost model for continuous query plans (Section 5.4.1).

"Each candidate plan is associated with a per-unit-time cost ... The cost
includes inserting new tuples into the state, processing them, expiring old
tuples, and processing negative tuples, if any."

For every operator the paper gives a per-unit-time cost in terms of its
input rates λ1, λ2, output rate λo, expected input sizes N1, N2 and output
size No:

* selection / projection / union: Σ λi
* join and intersection: λ1·N1 + λ2·N2
* δ duplicate elimination: λo · No/2
* group-by: 2·λ1·C (every tuple changes an aggregate twice — once on
  arrival, once on expiry)
* negation: at least 2·λ1·log d1 + 2·λ2·log d2 (binary-searchable frequency
  counts), plus probing on premature expirations
* the negative tuple approach doubles the cost of each operator it covers.

These quantities are estimated bottom-up from a :class:`Catalog` of stream
rates, window sizes, attribute distinct counts, and predicate selectivities.
The model's purpose is *ranking* candidate plans (experiment E8 validates
that its ordering matches measured ordering), not absolute prediction.
"""

from __future__ import annotations

import dataclasses
import math

from ..errors import ConfigError, PlanError
from .annotate import AnnotatedPlan, annotate
from .patterns import STR
from .plan import (
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
    Union,
    WindowScan,
)


@dataclasses.dataclass
class Catalog:
    """Statistics the estimator consumes.

    ``distinct_counts`` maps ``(stream_name, attr)`` to the expected number
    of distinct values of that attribute among live window tuples.  Unknown
    attributes fall back to ``default_distinct``.  ``aggregate_cost`` is the
    paper's C — the cost of recomputing one aggregate value.
    """

    distinct_counts: dict[tuple[str, str], float] = dataclasses.field(
        default_factory=dict)
    default_distinct: float = 100.0
    aggregate_cost: float = 1.0
    #: Estimated fraction of negation answers expiring prematurely, used to
    #: charge negation's probing term.
    premature_frequency: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.premature_frequency <= 1.0:
            raise ConfigError(
                f"premature_frequency must lie in [0, 1] (a fraction of "
                f"negation answers), got {self.premature_frequency}")

    def distinct(self, stream: str, attr: str) -> float:
        return self.distinct_counts.get((stream, attr), self.default_distinct)


@dataclasses.dataclass
class EdgeStats:
    """Estimated properties of the tuples flowing on one plan edge."""

    rate: float                      # λ — tuples per time unit
    size: float                      # N — expected live tuples
    distinct: dict[str, float]       # per-attribute distinct-value counts

    def distinct_of(self, attr: str, default: float) -> float:
        return self.distinct.get(attr, default)


@dataclasses.dataclass
class PlanCost:
    """Total per-unit-time cost plus a per-node breakdown."""

    total: float
    per_node: dict[int, float]                 # id(node) -> cost
    stats: dict[int, EdgeStats]                # id(node) -> output stats

    def cost_of(self, node: LogicalNode) -> float:
        return self.per_node[id(node)]

    def stats_of(self, node: LogicalNode) -> EdgeStats:
        return self.stats[id(node)]


def explain_with_cost(root: LogicalNode, catalog: Catalog | None = None,
                      annotated: AnnotatedPlan | None = None) -> str:
    """Render the plan with patterns, estimated rates/sizes and costs —
    the continuous-query analogue of EXPLAIN."""
    annotated = annotated if annotated is not None else annotate(root)
    cost = CostModel(catalog).estimate(root, annotated)
    lines: list[str] = [
        f"total per-unit-time cost: {cost.total:.1f}",
    ]

    def render(node: LogicalNode, depth: int) -> None:
        stats = cost.stats_of(node)
        size = "inf" if stats.size == math.inf else f"{stats.size:.0f}"
        lines.append(
            f"{'  ' * depth}{node.describe()}  "
            f"[{annotated.pattern_of(node)}]  "
            f"rate={stats.rate:.2f}/u  size={size}  "
            f"cost={cost.cost_of(node):.1f}"
        )
        for child in node.children:
            render(child, depth + 1)

    render(root, 0)
    return "\n".join(lines)


class CostModel:
    """Bottom-up estimator implementing the formulas of Section 5.4.1."""

    def __init__(self, catalog: Catalog | None = None):
        self.catalog = catalog if catalog is not None else Catalog()

    def estimate(self, root: LogicalNode,
                 annotated: AnnotatedPlan | None = None) -> PlanCost:
        """Estimate per-unit-time cost and edge statistics for every node."""
        annotated = annotated if annotated is not None else annotate(root)
        stats: dict[int, EdgeStats] = {}
        per_node: dict[int, float] = {}
        for node in root.walk():
            child_stats = [stats[id(c)] for c in node.children]
            out = self._stats_for(node, child_stats)
            cost = self._cost_for(node, child_stats, out)
            # The negative tuple approach doubles operator cost; STR input
            # means this operator must process explicit deletions, which the
            # paper models the same way.
            if any(annotated.pattern_of(c) is STR for c in node.children):
                cost *= 2.0
            stats[id(node)] = out
            per_node[id(node)] = cost
        return PlanCost(sum(per_node.values()), per_node, stats)

    # -- statistics derivation ----------------------------------------------

    def _stats_for(self, node: LogicalNode,
                   child: list[EdgeStats]) -> EdgeStats:
        cat = self.catalog
        if isinstance(node, WindowScan):
            rate = node.stream.rate
            window = node.stream.window
            size = rate * window.span if window is not None else math.inf
            distinct = {
                attr: min(cat.distinct(node.stream.name, attr), size)
                for attr in node.schema
            }
            return EdgeStats(rate, size, distinct)

        if isinstance(node, Select):
            (c,) = child
            sel = node.predicate.selectivity
            return EdgeStats(
                c.rate * sel, c.size * sel,
                {a: max(1.0, d * sel) for a, d in c.distinct.items()},
            )

        if isinstance(node, Project):
            (c,) = child
            return EdgeStats(c.rate, c.size,
                             {a: c.distinct.get(a, cat.default_distinct)
                              for a in node.attrs})

        if isinstance(node, Rename):
            (c,) = child
            old_names = node.child.schema.fields
            distinct = {new: c.distinct.get(old, cat.default_distinct)
                        for old, new in zip(old_names, node.names)}
            return EdgeStats(c.rate, c.size, distinct)

        if isinstance(node, Union):
            l, r = child
            distinct = {a: l.distinct.get(a, 0) + r.distinct.get(a, 0)
                        for a in node.schema}
            return EdgeStats(l.rate + r.rate, l.size + r.size, distinct)

        if isinstance(node, (Join, Intersect)):
            l, r = child
            if isinstance(node, Join):
                d = max(l.distinct_of(node.left_attr, cat.default_distinct),
                        r.distinct_of(node.right_attr, cat.default_distinct),
                        1.0)
            else:
                d = max(max(l.distinct.values(), default=1.0),
                        max(r.distinct.values(), default=1.0), 1.0)
            rate = (l.rate * r.size + r.rate * l.size) / d
            size = l.size * r.size / d
            distinct = dict(l.distinct)
            if isinstance(node, Join):
                for i, a in enumerate(node.schema):
                    distinct.setdefault(a, cat.default_distinct)
            return EdgeStats(rate, size, distinct)

        if isinstance(node, DupElim):
            (c,) = child
            d = max(c.distinct.values(), default=cat.default_distinct)
            d = min(d, c.size) if c.size != math.inf else d
            # New distinct values plus replacement promotions.
            rate = c.rate * min(1.0, d / c.size if c.size else 1.0) * 2.0
            return EdgeStats(rate, d, dict(c.distinct))

        if isinstance(node, GroupBy):
            (c,) = child
            groups = 1.0
            for key in node.keys:
                groups *= c.distinct_of(key, cat.default_distinct)
            groups = min(groups, c.size) if c.size != math.inf else groups
            return EdgeStats(2.0 * c.rate, groups, {k: groups for k in node.keys})

        if isinstance(node, Negation):
            l, r = child
            # Answers are a subset of the left input.
            return EdgeStats(l.rate, max(l.size - r.size, l.size * 0.1),
                             dict(l.distinct))

        if isinstance(node, NRRJoin):
            (c,) = child
            d = max(self.catalog.distinct(node.nrr.name, node.rel_attr), 1.0)
            fan_out = max(len(node.nrr), 1) / d
            return EdgeStats(c.rate * fan_out, c.size * fan_out,
                             dict(c.distinct))

        if isinstance(node, RelationJoin):
            (c,) = child
            d = max(self.catalog.distinct(node.relation.name, node.rel_attr),
                    1.0)
            fan_out = max(len(node.relation), 1) / d
            return EdgeStats(c.rate * fan_out, c.size * fan_out,
                             dict(c.distinct))

        raise PlanError(f"cost model cannot estimate {node!r}")

    # -- operator costs ---------------------------------------------------------

    def _cost_for(self, node: LogicalNode, child: list[EdgeStats],
                  out: EdgeStats) -> float:
        cat = self.catalog
        if isinstance(node, WindowScan):
            return 0.0
        if isinstance(node, (Select, Project, Rename, Union)):
            return sum(c.rate for c in child)
        if isinstance(node, (Join, Intersect)):
            l, r = child
            return l.rate * l.size + r.rate * r.size
        if isinstance(node, DupElim):
            return out.rate * out.size / 2.0
        if isinstance(node, GroupBy):
            (c,) = child
            return 2.0 * c.rate * cat.aggregate_cost
        if isinstance(node, Negation):
            l, r = child
            d1 = max(l.distinct_of(node.left_attr, cat.default_distinct), 2.0)
            d2 = max(r.distinct_of(node.right_attr, cat.default_distinct), 2.0)
            base = 2.0 * l.rate * math.log2(d1) + 2.0 * r.rate * math.log2(d2)
            # Premature expirations probe the left state and emit negatives.
            probe = cat.premature_frequency * r.rate * (l.size / d1)
            return base + probe
        if isinstance(node, NRRJoin):
            (c,) = child
            return c.rate
        if isinstance(node, RelationJoin):
            (c,) = child
            return c.rate * max(len(node.relation), 1) / max(
                cat.distinct(node.relation.name, node.rel_attr), 1.0)
        raise PlanError(f"cost model cannot price {node!r}")
