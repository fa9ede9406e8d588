"""Update-pattern-aware query optimization (Section 5.4.2).

The optimizer enumerates alternative plans with classical rewrite rules plus
the paper's two update-pattern-aware heuristics, then ranks candidates with
the cost model:

* **Update pattern simplification** — push operators with simple (WKS)
  patterns down and pull complicated ones (negation) up, "to minimize the
  number of operators affected by negative tuples" and maximize the subtree
  in which δ and the cheap direct structures apply.  Concretely: selection
  push-down (always sound) and negation pull-up / push-down through joins.
* **Duplicate elimination push-down** — move δ below a join so its smaller
  output feeds the join.

One hard constraint is enforced everywhere: the input to an R-join or an
NRR-join can never be strict non-monotonic, because those joins cannot
process negative tuples — so they are never pushed below a negation.

Caveat (documented in DESIGN.md): negation pull-up/push-down and duplicate
elimination push-down are *set-semantics* rewrites — under Equation 1's bag
semantics the two sides can differ in multiplicity when the moved operator's
sibling input carries duplicate key values.  They are therefore generated
only when :class:`RewriteOptions` enables them (the default mirrors the
paper, which treats Figure 6's two rewritings as interchangeable), and the
benchmark workloads verify value-set equivalence explicitly.
"""

from __future__ import annotations

import dataclasses

from ..errors import PlanError, SchemaError
from .annotate import annotate
from .cost import Catalog, CostModel, PlanCost
from .plan import (
    DupElim,
    Join,
    LogicalNode,
    Negation,
    Predicate,
    Select,
)


@dataclasses.dataclass
class RewriteOptions:
    """Which rewrite rules the enumerator may apply."""

    push_selections: bool = True
    reorder_joins: bool = True      # associativity (input swap is cost-neutral)
    move_negation: bool = True      # set-semantics caveat, see module docs
    move_dupelim: bool = True       # set-semantics caveat, see module docs
    max_candidates: int = 64


@dataclasses.dataclass
class RankedPlan:
    """A candidate plan together with its estimated cost."""

    plan: LogicalNode
    cost: PlanCost

    @property
    def total_cost(self) -> float:
        return self.cost.total


class Optimizer:
    """Cost-based plan chooser over the rewrite-rule closure."""

    def __init__(self, catalog: Catalog | None = None,
                 options: RewriteOptions | None = None):
        self.catalog = catalog if catalog is not None else Catalog()
        self.options = options if options is not None else RewriteOptions()
        self.model = CostModel(self.catalog)

    # -- public API -----------------------------------------------------------

    def candidates(self, root: LogicalNode) -> list[LogicalNode]:
        """The rewrite closure of ``root`` (including ``root`` itself),
        de-duplicated structurally, capped at ``max_candidates``."""
        seen: dict[str, LogicalNode] = {}
        frontier = [root]
        while frontier and len(seen) < self.options.max_candidates:
            plan = frontier.pop()
            signature = _signature(plan)
            if signature in seen:
                continue
            if not _legal(plan):
                continue
            seen[signature] = plan
            frontier.extend(self._neighbours(plan))
        return list(seen.values())

    def rank(self, root: LogicalNode) -> list[RankedPlan]:
        """All candidates, cheapest first."""
        ranked = [RankedPlan(p, self.model.estimate(p))
                  for p in self.candidates(root)]
        ranked.sort(key=lambda r: r.total_cost)
        return ranked

    def optimize(self, root: LogicalNode) -> RankedPlan:
        """The cheapest legal rewriting of ``root``."""
        ranked = self.rank(root)
        if not ranked:
            raise PlanError("no legal plan found")
        return ranked[0]

    # -- rewrite neighbourhood ----------------------------------------------------

    def _neighbours(self, plan: LogicalNode) -> list[LogicalNode]:
        out: list[LogicalNode] = []
        out.extend(self._rewrites_at_root(plan))
        # Recurse: rewrite any child and rebuild the parent.
        for i, child in enumerate(plan.children):
            for new_child in self._neighbours(child):
                children = list(plan.children)
                children[i] = new_child
                try:
                    out.append(plan.with_children(children))
                except PlanError:
                    continue
        return out

    def _rewrites_at_root(self, plan: LogicalNode) -> list[LogicalNode]:
        out: list[LogicalNode] = []
        opts = self.options

        if opts.push_selections and isinstance(plan, Select):
            out.extend(_push_selection(plan))
        if opts.reorder_joins and isinstance(plan, Join):
            # Input *swapping* is deliberately not generated: the per-unit
            # cost of a join (λ1·N1 + λ2·N2) is symmetric in its inputs, so
            # a swap can never change a plan's rank — and the projection
            # needed to keep it answer-preserving breeds unbounded rewrite
            # families.  Associativity, which does change intermediate
            # sizes, is generated instead.
            out.extend(_join_rotate(plan))
        if opts.move_negation:
            out.extend(_negation_pull_up(plan))
            out.extend(_negation_push_down(plan))
        if opts.move_dupelim:
            out.extend(_dupelim_push_down(plan))
        return out


# ---------------------------------------------------------------------------
# individual rewrite rules
# ---------------------------------------------------------------------------

def _push_selection(select: Select) -> list[LogicalNode]:
    """σ over a binary operator → σ applied to whichever inputs provide all
    the predicate's attributes."""
    child = select.child
    out: list[LogicalNode] = []
    if isinstance(child, (Join, Negation)):
        # For negation, pushing into the right input would change the
        # result (it filters what is *subtracted*), so only the left side
        # is eligible; for joins both are.
        for side in (0, 1) if isinstance(child, Join) else (0,):
            predicate = _predicate_below(select.predicate, child, side)
            if predicate is not None:
                children = list(child.children)
                children[side] = Select(children[side], predicate)
                out.append(child.with_children(children))
    if isinstance(child, DupElim):
        out.append(DupElim(Select(child.child, select.predicate)))
    return out


def _predicate_below(predicate: Predicate, node: LogicalNode,
                     side: int) -> Predicate | None:
    """``predicate`` (over ``node``'s output) re-expressed over input
    ``side``, or None when that input does not provide all its attributes.

    A binary operator's output lists the left input's columns, then (for a
    join) the right's, renamed by ``Join.prefixes`` where the two clash —
    so the predicate's names are mapped back through the output schema by
    position, and its positional ``fn`` is shifted for the right input.
    """
    source = node.children[side].schema.fields
    offset = len(node.children[0].schema.fields) if side else 0
    back = dict(zip(node.schema.fields[offset:offset + len(source)], source))
    if not set(predicate.attrs) <= back.keys():
        return None
    fn = predicate.fn
    if offset:
        pad = (None,) * offset
        fn = lambda values, _fn=predicate.fn: _fn(pad + values)  # noqa: E731
    return dataclasses.replace(
        predicate, attrs=tuple(back[a] for a in predicate.attrs), fn=fn)


def _negation_pull_up(plan: LogicalNode) -> list[LogicalNode]:
    """(A − B on k) ⋈_k C  →  (A ⋈_k C) − B on k.

    Moving the negation above the join means the join never sees negative
    tuples (update pattern simplification).  Applies when the join attribute
    is the negation attribute.
    """
    if not isinstance(plan, Join):
        return []
    out: list[LogicalNode] = []
    left, right = plan.left, plan.right
    if isinstance(left, Negation) and left.left_attr == plan.left_attr:
        joined = Join(left.left, right, plan.left_attr, plan.right_attr,
                      plan.prefixes)
        # The negation attribute keeps its (possibly prefixed) left name.
        neg_attr = _attr_after_join(joined, plan.left_attr, side="left")
        out.append(Negation(joined, left.right, neg_attr, left.right_attr))
    if isinstance(right, Negation) and right.left_attr == plan.right_attr:
        joined = Join(left, right.left, plan.left_attr, plan.right_attr,
                      plan.prefixes)
        neg_attr = _attr_after_join(joined, plan.right_attr, side="right")
        out.append(Negation(joined, right.right, neg_attr, right.right_attr))
    return out


def _negation_push_down(plan: LogicalNode) -> list[LogicalNode]:
    """(A ⋈_k C) − B on k  →  (A − B on k) ⋈_k C, when the negation
    attribute came from the join's left (resp. right) input."""
    if not isinstance(plan, Negation):
        return []
    child = plan.left
    if not isinstance(child, Join):
        return []
    out: list[LogicalNode] = []
    left_attr = _attr_after_join(child, child.left_attr, side="left")
    right_attr = _attr_after_join(child, child.right_attr, side="right")
    if plan.left_attr == left_attr:
        negated = Negation(child.left, plan.right, child.left_attr,
                           plan.right_attr)
        out.append(Join(negated, child.right, child.left_attr,
                        child.right_attr, child.prefixes))
    if plan.left_attr == right_attr:
        negated = Negation(child.right, plan.right, child.right_attr,
                           plan.right_attr)
        out.append(Join(child.left, negated, child.left_attr,
                        child.right_attr, child.prefixes))
    return out


def _join_rotate(plan: Join) -> list[LogicalNode]:
    """Associativity: (A ⋈_k B) ⋈_k C → A ⋈_k (B ⋈_k C), when all three
    joins use the same key chain (the common equi-join star pattern).

    Only the clash-free case (disjoint schemas, no prefixes) is rotated —
    prefixed attribute renames under rotation change output schemas, which
    a rewrite must never do.
    """
    out: list[LogicalNode] = []
    left = plan.left
    if not isinstance(left, Join):
        return out
    inner_clash = set(left.left.schema.fields) & set(left.right.schema.fields)
    outer_clash = set(left.schema.fields) & set(plan.right.schema.fields)
    if inner_clash or outer_clash:
        return out
    # (A ⋈ B on a=b) ⋈ C on x=c where x names an attribute of A or B.
    a, b = left.left, left.right
    if plan.left_attr in b.schema:
        try:
            inner = Join(b, plan.right, plan.left_attr, plan.right_attr,
                         plan.prefixes)
            rotated = Join(a, inner, left.left_attr, left.right_attr,
                           left.prefixes)
        except (PlanError, SchemaError):
            return out
        if rotated.schema == plan.schema:
            out.append(rotated)
    return out


def _dupelim_push_down(plan: LogicalNode) -> list[LogicalNode]:
    """δ(A ⋈ B) → δ(A) ⋈ δ(B): duplicate elimination below the join so the
    smaller distinct inputs feed it (the paper's second heuristic)."""
    if not (isinstance(plan, DupElim) and isinstance(plan.child, Join)):
        return []
    join = plan.child
    return [Join(DupElim(join.left), DupElim(join.right),
                 join.left_attr, join.right_attr, join.prefixes)]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _attr_after_join(join: Join, attr: str, side: str) -> str:
    """The name ``attr`` carries in the join's output schema."""
    clashes = set(join.left.schema.fields) & set(join.right.schema.fields)
    if attr not in clashes:
        return attr
    prefix = join.prefixes[0] if side == "left" else join.prefixes[1]
    return f"{prefix}{attr}"


def _legal(plan: LogicalNode) -> bool:
    """Reject plans that violate the R-/NRR-join constraint (their input
    must not be STR, Section 5.4.2); annotation raises in that case."""
    try:
        annotate(plan)
    except PlanError:
        return False
    return True


def _signature(plan: LogicalNode) -> str:
    """Structural identity for de-duplication of candidate plans."""
    parts = [plan.describe()]
    parts.extend(_signature(c) for c in plan.children)
    return "(" + " ".join(parts) + ")"
