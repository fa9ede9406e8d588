"""Compilation of annotated logical plans into physical pipelines.

This module is where the three execution strategies of the paper differ:

* **NT** (negative tuple approach, Section 2.3.1): windows are materialized
  and emit a negative tuple per expiration; all state and the result view
  are hash tables keyed so that negatives delete in O(1); nothing is ever
  purged by timestamp, but every tuple is processed twice.
* **DIRECT** (Section 2.3.2): nothing is materialized at the leaves and no
  negatives flow (so the plan must be negation-free); state buffers and the
  result view are pattern-unaware arrival-ordered lists whose expiration
  requires sequential scans.
* **UPA** (Section 5): buffers are chosen per input edge from the plan's
  update-pattern annotation — FIFO for WKS, partitioned for WK — duplicate
  elimination uses the δ operator on WKS/WK input, and STR (sub)results are
  stored partitioned by ``exp``, where a premature deletion scans one
  partition.  Section 5.4.3's alternative (negative-tuple hash state above
  the negation) is not offered: it won no point of E4's sweep (DESIGN.md,
  "STR storage: one scheme").

The physical pipeline mirrors the logical tree; operators are
strategy-agnostic and receive their behaviour through the buffers and flags
plugged in here.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import NamedTuple

from ..buffers.base import StateBuffer
from ..buffers.fifo import FifoBuffer
from ..buffers.hashed import HashBuffer
from ..buffers.listbuffer import ListBuffer
from ..buffers.partitioned import PartitionedBuffer
from ..core.annotate import AnnotatedPlan, annotate
from ..core.metrics import Counters
from ..core.patterns import MONOTONIC, STR, UpdatePattern, WK, WKS
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
from ..core.tuples import deletion_key
from ..errors import ConfigError, PlanError
from ..operators.base import PhysicalOperator
from ..operators.dupelim import DupElimDeltaOp, DupElimStandardOp
from ..operators.groupby import GroupByOp
from ..operators.join import IntersectOp, JoinOp
from ..operators.negation import NegationFifoOp, NegationOp
from ..operators.relation_join import NRRJoinOp, RelationJoinOp
from ..operators.stateless import (PortOp, ProjectOp, SelectOp, UnionOp,
                                   WindowOp)
from ..streams.window import CountWindow, TimeWindow
from .telemetry import MetricsRegistry
from .views import (AppendView, BufferView, DeltaStateView, GroupStateView,
                    JoinStateView, PortView, ResultView)


class Mode(str, enum.Enum):
    """The three execution strategies compared in the paper."""

    NT = "nt"
    DIRECT = "direct"
    UPA = "upa"


@dataclasses.dataclass
class ExecutionConfig:
    """Tunable physical parameters (Section 6.1's experimental knobs).

    Knobs are validated eagerly at construction (and therefore at
    ``dataclasses.replace`` time): a bad value raises
    :class:`repro.errors.ConfigError` immediately, instead of surfacing
    later as an opaque failure deep inside ``PartitionedBuffer.__init__``
    mid-compilation.
    """

    mode: Mode = Mode.UPA
    n_partitions: int = 10
    #: Period of lazy state maintenance, in time units (NT has none).
    #: None → 5% of the largest window size (the paper's default).
    lazy_interval: float | None = None
    #: Stateful operators over *unbounded* streams accumulate state without
    #: limit — the feasibility problem sliding windows exist to solve
    #: (Section 1).  Compilation rejects such plans unless explicitly
    #: permitted (e.g. for bounded experiments).
    allow_unbounded_state: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Mode):
            raise ConfigError(
                f"mode must be a Mode, got {self.mode!r} "
                f"(valid: {[m.value for m in Mode]})")
        if not isinstance(self.n_partitions, int) or self.n_partitions < 1:
            raise ConfigError(
                f"n_partitions must be >= 1 and an int, got "
                f"{self.n_partitions!r} (the partitioned buffer needs at "
                "least one partition, Figure 7)")
        interval = self.lazy_interval
        # nan and inf compare False against 0, and either one would mean
        # lazily maintained state is never purged.
        if interval is not None and not (
                isinstance(interval, (int, float))
                and math.isfinite(interval) and interval > 0):
            raise ConfigError(
                f"lazy_interval must be positive and finite when set, got "
                f"{interval!r} (None selects the paper's default of "
                "5% of the largest window)")


class DispatchPlan(NamedTuple):
    """One leaf's arrival plan for a stream.

    ``prefix`` is the maximal chain of stateless operators directly above
    the leaf that expose a :meth:`kernel` — inlined per tuple by the
    driver's arrival closures, evaluated over whole columns by its column
    loop — and ``suffix`` is the remaining route, run stage by stage
    through ``process_batch``.  Fusing only reorders *how* the same
    per-tuple work is expressed; outputs, state transitions and counter
    charges are unchanged.  A shared port is a leaf too: it replays a list
    per arrival, so its prefix is empty and its suffix is the whole route.
    """

    leaf: WindowOp | PortOp
    prefix: tuple  # ((op, kind, arg), ...) from kernel()
    suffix: tuple  # ((parent, slot), ...) remaining route to the root


class CompiledQuery:
    """A physical pipeline, and the program its driver runs.

    Everything the driver needs per event is resolved here once, at
    compile time: the per-stream dispatch tables, the routes, the eager
    and lazy expiration participants.  :class:`~repro.engine.driver.Driver`
    compiles these tables into its loops, and
    :func:`repro.testing.reference_step` interprets the same tables as
    Section 2's event loop, the reference the loops are tested against.
    """

    def __init__(self, root: LogicalNode, annotated: AnnotatedPlan,
                 config: ExecutionConfig, counters: Counters):
        self.root = root
        self.annotated = annotated
        self.config = config
        self.counters = counters
        self.ops: dict[int, PhysicalOperator] = {}  # id(logical) -> physical
        self.routes: dict[int, list[tuple[PhysicalOperator, int]]] = {}
        #: stream -> its source leaves, in plan walk order (window leaves,
        #: and the port of every shared subtree that reads the stream).
        self.leaf_bindings: dict[str, list[WindowOp | PortOp]] = {}
        #: (SharedScan, PortOp) pairs, in plan walk order — the sharing
        #: planner binds each port to its producer's record.
        self.shared_ports: list[tuple[SharedScan, PortOp]] = []
        self.relation_bindings: dict[str, list[RelationJoinOp]] = {}
        self.relations: dict[str, object] = {}  # name -> Relation | NRR
        self.expire_ops: list[PhysicalOperator] = []  # bottom-up order
        self.lazy_ops: list[PhysicalOperator] = []
        self.view: ResultView = AppendView(counters)
        self.view_note = ""  # which view and why: the ``-- view:`` footer
        #: Per negation, in plan walk order: the structure chosen and why.
        self.negation_notes: list[str] = []
        self.time_domain = "time"
        self.count_stream: str | None = None
        self.max_span: float | None = None
        #: The pipeline's labeled metrics registry: always present, and
        #: empty until its driver's first state sample or flush registers
        #: the instruments (:class:`~repro.engine.telemetry.DriverMetrics`).
        self.metrics = MetricsRegistry()
        #: stream -> tuple[DispatchPlan], one per leaf binding, in order.
        self.dispatch: dict[str, tuple[DispatchPlan, ...]] = {}
        #: The CST8xx state-bound certificate, attached when the driver
        #: is built.
        self.certificate = None
        #: A shared producer's ``(per-tuple, batch)`` closure pair the
        #: driver runs after every arrival's dispatch plans (:mod:`.sharing`).
        self.after_arrival = None

    def route_of(self, op: PhysicalOperator) -> list[tuple[PhysicalOperator, int]]:
        return self.routes[id(op)]

    def describe(self) -> str:
        """The loop this pipeline runs, in one line: the ``-- program:``
        explain footer (step order, dispatch tables, fused prefix
        operators, eager and lazy participants, and the structure of each
        negation with its reason)."""
        fused = sum(len(plan.prefix)
                    for plans in self.dispatch.values() for plan in plans)
        negation = "".join(f" | negation: {note}"
                           for note in self.negation_notes)
        return ("EXPIRE>DISPATCH>PROPAGATE>PURGE>DELIVER"
                f" | streams={len(self.dispatch)} fused={fused}"
                f" expire={len(self.expire_ops)} lazy={len(self.lazy_ops)}"
                f"{negation}")

    def op_for(self, node: LogicalNode) -> PhysicalOperator:
        return self.ops[id(node)]

    def state_size(self) -> int:
        """Total tuples held across all operator state (not the view)."""
        return sum(op.state_size() for op in self.ops.values())

    def __repr__(self) -> str:
        return (
            f"CompiledQuery(mode={self.config.mode.value}, "
            f"ops={len(self.ops)}, view={type(self.view).__name__})"
        )


def compile_plan(root: LogicalNode, config: ExecutionConfig,
                 counters: Counters | None = None,
                 view_counters: Counters | None = None) -> CompiledQuery:
    """Compile a logical plan under the given strategy; the result view
    charges ``view_counters`` if given (a shared producer's), else
    ``counters``."""
    counters = counters if counters is not None else Counters()
    annotated = annotate(root)
    _validate(root, annotated, config)
    compiled = CompiledQuery(root, annotated, config, counters)
    _inspect_windows(root, compiled)
    for node in root.walk():
        _build_node(node, compiled, annotated, config)
    _wire_routes(root, compiled)
    _plan_dispatch(compiled)
    _build_view(root, compiled, annotated, config,
                counters if view_counters is None else view_counters)
    return compiled


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _reject_reused_nodes(root: LogicalNode) -> None:
    """One node object under two parents: a PlanError in every mode."""
    seen: set[int] = set()
    for node in root.walk():
        if id(node) in seen:
            raise PlanError(
                f"{node.describe()} appears twice in the plan: one node "
                "object cannot feed two parents; build each input separately")
        seen.add(id(node))


def _validate(root: LogicalNode, annotated: AnnotatedPlan,
              config: ExecutionConfig) -> None:
    _reject_reused_nodes(root)
    for node in root.walk():
        if isinstance(node, GroupBy) and node is not root:
            raise PlanError(
                "GroupBy must be the plan root: its replacement-keyed output "
                "cannot feed other operators in this implementation"
            )
        if isinstance(node, NRRJoin) and config.mode is Mode.NT:
            raise PlanError(
                "NRR-joins cannot run under the negative tuple approach: "
                "they are incapable of processing negative tuples "
                "(Section 5.4.2)"
            )
    if config.mode is Mode.DIRECT and annotated.contains_strict():
        raise PlanError(
            "the direct approach supports only negation-free plans without "
            "retroactive relation joins (Section 3.1: only non-STR results "
            "can be maintained without negative tuples)"
        )
    if not config.allow_unbounded_state:
        _reject_unbounded_state(root, annotated)


#: Stateful logical operators: their inputs are stored, so a MONOTONIC
#: (never-expiring) input means unbounded memory.
_STATEFUL = (Join, Intersect, DupElim, GroupBy, Negation, RelationJoin)


def _reject_unbounded_state(root: LogicalNode,
                            annotated: AnnotatedPlan) -> None:
    for node in root.walk():
        if not isinstance(node, _STATEFUL):
            continue
        for child in node.children:
            if annotated.pattern_of(child) is MONOTONIC:
                raise PlanError(
                    f"{node.describe()} stores its input, but the input "
                    "below it is an unbounded stream whose tuples never "
                    "expire: state would grow without limit (Section 1). "
                    "Bound the stream with a sliding window, or set "
                    "allow_unbounded_state=True for bounded experiments."
                )


def _inspect_windows(root: LogicalNode, compiled: CompiledQuery) -> None:
    leaves = root.leaves()
    # Shared scans hide their subtree's window leaves from walk(); fold
    # them back in so residual-plan decisions that depend on whole-plan
    # window geometry (max_span for partitioned buffers, the time domain)
    # are identical to the un-cut plan's.
    for node in root.walk():
        if isinstance(node, SharedScan):
            leaves = leaves + node.source_leaves()
    time_leaves = [l for l in leaves
                   if isinstance(l.stream.window, TimeWindow)]
    count_leaves = [l for l in leaves
                    if isinstance(l.stream.window, CountWindow)]
    if count_leaves and time_leaves:
        raise PlanError(
            "mixing time-based and count-based windows in one plan is not "
            "supported (their expiration domains are incomparable)"
        )
    if count_leaves:
        streams = {l.stream.name for l in count_leaves}
        all_streams = {l.stream.name for l in leaves}
        if len(all_streams) > 1:
            raise PlanError(
                "count-based windows are supported for single-stream plans "
                "only (the sequence clock is per-stream); got streams "
                f"{sorted(all_streams)}"
            )
        compiled.time_domain = "count"
        compiled.count_stream = next(iter(streams))
    spans = [l.stream.window.span for l in leaves if l.stream.window is not None]
    compiled.max_span = max(spans) if spans else None


# ---------------------------------------------------------------------------
# per-node construction
# ---------------------------------------------------------------------------

def _build_node(node: LogicalNode, compiled: CompiledQuery,
                annotated: AnnotatedPlan, config: ExecutionConfig) -> None:
    counters = compiled.counters
    mode = config.mode
    nt = mode is Mode.NT
    # Under NT every expiration starts as a window's negative, which
    # deletes each stored tuple it derived at that tuple's exp (Section
    # 2.3.1): no state trails the clock, so nothing is purged by timestamp.
    lazy_ops = [] if nt else compiled.lazy_ops

    def buffer_for(pattern: UpdatePattern, key_of) -> StateBuffer:
        return _make_buffer(pattern, key_of, mode, config, compiled.max_span,
                            counters)

    op: PhysicalOperator

    if isinstance(node, WindowScan):
        materialize = nt and node.stream.window is not None
        op = WindowOp(node.schema, node.stream.window,
                      materialize=materialize, counters=counters,
                      name=node.stream.name)
        compiled.leaf_bindings.setdefault(node.stream.name, []).append(op)
        if materialize:
            compiled.expire_ops.append(op)

    elif isinstance(node, SharedScan):
        # Source leaf replaying a shared producer's output stream at the
        # two positions the subtree held: an eager participant here in the
        # bottom-up walk, and the arrival leaf of every stream it reads.
        # Transparent (no counters, no clock), so per-query attribution
        # matches what the residual operators alone cost independently.
        op = PortOp(node.schema, counters)
        compiled.shared_ports.append((node, op))
        compiled.expire_ops.append(op)
        for name in dict.fromkeys(
                leaf.stream.name for leaf in node.source_leaves()):
            compiled.leaf_bindings.setdefault(name, []).append(op)

    elif isinstance(node, Select):
        op = SelectOp(node.schema, node.predicate.fn, counters,
                      label=node.predicate.label)

    elif isinstance(node, Project):
        op = ProjectOp(node.schema, node.indices, counters)

    elif isinstance(node, Rename):
        # Values are untouched: renaming is a pure pass-through at runtime.
        op = UnionOp(node.schema, counters)

    elif isinstance(node, Union):
        op = UnionOp(node.schema, counters)

    elif isinstance(node, Join):
        li = node.left.schema.index_of(node.left_attr)
        ri = node.right.schema.index_of(node.right_attr)
        lp = annotated.pattern_of(node.left)
        rp = annotated.pattern_of(node.right)
        op = JoinOp(
            node.schema, li, ri,
            buffer_for(lp, lambda t, i=li: t.values[i]),
            buffer_for(rp, lambda t, i=ri: t.values[i]),
            counters,
        )
        lazy_ops.append(op)

    elif isinstance(node, Intersect):
        lp = annotated.pattern_of(node.children[0])
        rp = annotated.pattern_of(node.children[1])
        values_of = lambda t: t.values  # noqa: E731
        op = IntersectOp(node.schema, buffer_for(lp, values_of),
                         buffer_for(rp, values_of), counters)
        lazy_ops.append(op)

    elif isinstance(node, DupElim):
        pattern = annotated.pattern_of(node.child)
        # Representatives expire out of generation order even over WKS
        # input (Figure 2), so the output state follows the *output*
        # pattern (WK, or STR over STR input).
        out_pattern = annotated.pattern_of(node)
        values_of = lambda t: t.values  # noqa: E731
        if mode is Mode.UPA and pattern is not STR:
            op = DupElimDeltaOp(node.schema,
                                buffer_for(out_pattern, values_of),
                                counters)
        else:
            op = DupElimStandardOp(
                node.schema,
                buffer_for(pattern, values_of),
                buffer_for(out_pattern, values_of),
                counters,
            )
            lazy_ops.append(op)
        if not nt:
            compiled.expire_ops.append(op)

    elif isinstance(node, GroupBy):
        key_idx = node.child.schema.indices_of(node.keys)
        agg_kinds = tuple(a.kind for a in node.aggregates)
        agg_idx = tuple(
            node.child.schema.index_of(a.attr) if a.attr is not None else None
            for a in node.aggregates
        )
        pattern = annotated.pattern_of(node.child)
        # Never probed: no key index (a hash buffer's table is its own).
        op = GroupByOp(node.schema, key_idx, agg_kinds, agg_idx,
                       buffer_for(pattern, None), counters,
                       self_expire=not nt)
        if not nt:
            compiled.expire_ops.append(op)

    elif isinstance(node, Negation):
        li = node.left.schema.index_of(node.left_attr)
        ri = node.right.schema.index_of(node.right_attr)
        # Under NT the windows below deliver every expiration as a
        # negative, and the operator retracts each departing member with
        # one; under UPA it detects its own expirations.
        inputs = [annotated.pattern_of(child) for child in node.children]
        if nt:
            op = NegationOp(node.schema, li, ri, self_expire=False,
                            counters=counters)
            note = "general (NT)"
        elif inputs == [WKS, WKS]:
            # Both sides expire in arrival order and never prematurely:
            # FIFO queues and per-value counts replace the heaps.
            op = NegationFifoOp(node.schema, li, ri, counters=counters)
            note = "FIFO (WKS × WKS)"
        else:
            op = NegationOp(node.schema, li, ri, counters=counters)
            why = next(p for p in inputs if p is not WKS)
            note = f"general ({why} input)"
        compiled.negation_notes.append(note)
        if not nt:
            compiled.expire_ops.append(op)

    elif isinstance(node, NRRJoin):
        li = node.child.schema.index_of(node.left_attr)
        ri = node.nrr.schema.index_of(node.rel_attr)
        node.nrr.ensure_index(ri)
        op = NRRJoinOp(node.schema, node.nrr, li, ri, counters)
        compiled.relations[node.nrr.name] = node.nrr

    elif isinstance(node, RelationJoin):
        li = node.child.schema.index_of(node.left_attr)
        ri = node.relation.schema.index_of(node.rel_attr)
        node.relation.ensure_index(ri)
        pattern = annotated.pattern_of(node.child)
        op = RelationJoinOp(
            node.schema, node.relation, li, ri,
            buffer_for(pattern, lambda t, i=li: t.values[i]), counters,
        )
        compiled.relation_bindings.setdefault(node.relation.name, []).append(op)
        compiled.relations[node.relation.name] = node.relation
        lazy_ops.append(op)

    else:  # pragma: no cover - exhaustive over the algebra
        raise PlanError(f"no physical implementation for {node!r}")

    compiled.ops[id(node)] = op


def _make_buffer(pattern: UpdatePattern, key_of, mode: Mode,
                 config: ExecutionConfig, max_span: float | None,
                 counters: Counters) -> StateBuffer:
    """Pick the physical structure for state fed by an edge with ``pattern``."""
    if mode is Mode.NT:
        return HashBuffer(key_of, counters)
    if mode is Mode.DIRECT:
        return ListBuffer(key_of, counters)
    # UPA: pattern-aware choice (Section 5.3.2).
    if pattern in (MONOTONIC, WKS):
        return FifoBuffer(key_of, counters)
    if max_span is None:
        # Only reachable with allow_unbounded_state: there are no windows,
        # so nothing ever expires and partitioning by expiration time is
        # meaningless — a plain list suffices.
        return ListBuffer(key_of, counters)
    # WK and STR input both use the partitioned structure; STR premature
    # deletions scan a single partition.
    return PartitionedBuffer(max_span, config.n_partitions, key_of, counters)


# ---------------------------------------------------------------------------
# routing and the view
# ---------------------------------------------------------------------------

def _wire_routes(root: LogicalNode, compiled: CompiledQuery) -> None:
    """Compute, for every physical op, the (parent, input-slot) chain to the
    root, which the executor uses to propagate emissions."""
    parent_of: dict[int, tuple[LogicalNode, int]] = {}
    for node in root.walk():
        for slot, child in enumerate(node.children):
            parent_of[id(child)] = (node, slot)

    for node in root.walk():
        route: list[tuple[PhysicalOperator, int]] = []
        cursor = node
        while id(cursor) in parent_of:
            parent, slot = parent_of[id(cursor)]
            route.append((compiled.op_for(parent), slot))
            cursor = parent
        compiled.routes[id(compiled.op_for(node))] = route


def _plan_dispatch(compiled: CompiledQuery) -> None:
    """Split every leaf's route into its fused kernel prefix and the
    generic suffix (:class:`DispatchPlan`)."""
    for stream, leaves in compiled.leaf_bindings.items():
        plans = []
        for leaf in leaves:
            route = compiled.routes[id(leaf)]
            prefix = []
            # A port replays lists, not single tuples: nothing to inline.
            for parent, _slot in (() if isinstance(leaf, PortOp) else route):
                kernel = parent.kernel()
                if kernel is None:
                    break
                prefix.append((parent, kernel[0], kernel[1]))
            plans.append(DispatchPlan(leaf, tuple(prefix),
                                      tuple(route[len(prefix):])))
        compiled.dispatch[stream] = tuple(plans)


def _build_view(root: LogicalNode, compiled: CompiledQuery,
                annotated: AnnotatedPlan, config: ExecutionConfig,
                counters: Counters) -> None:
    pattern = annotated.output_pattern
    mode = config.mode
    why = f"{pattern} root"

    def chose(view: ResultView, note: str) -> None:
        compiled.view, compiled.view_note = view, note

    if isinstance(root, (GroupBy, DupElim)):
        # Eager roots whose own state is Definition 2's view: the group
        # table (Rule 4's replacement array), δ's live representatives.
        op = compiled.op_for(root)
        if isinstance(root, GroupBy):
            return chose(GroupStateView(op, counters),
                         "group state (group-by root, rows finished on read)")
        if type(op) is DupElimDeltaOp:
            return chose(DeltaStateView(op, counters),
                         f"δ output state (UPA, {pattern} root, the live "
                         "representatives)")
    if isinstance(root, SharedScan):
        return chose(PortView(compiled.op_for(root)),
                     f"the producer's view ({root.label}: whole plan shared)")
    if pattern is MONOTONIC:
        return chose(AppendView(counters), "append (monotonic root)")
    if (mode is Mode.UPA and pattern in (WKS, WK)
            and type(compiled.op_for(root)) is JoinOp):
        # The join's indexed, exp-stamped state already is the answer; a
        # stored view pays only where it cannot outgrow that state: both
        # inputs (a shared subtree: its source) unique on the join key.
        if not all(isinstance(getattr(child, "source", child), DupElim)
                   and child.schema.fields == (attr,)
                   for child, attr in ((root.left, root.left_attr),
                                       (root.right, root.right_attr))):
            return chose(JoinStateView(compiled.op_for(root), counters),
                         f"join state (UPA, {pattern} root, bag inputs)")
        why = "key-unique inputs"

    # Only the hash view looks results up by key (negatives find their
    # victims there).  The timestamp-purged views delete by bisecting or
    # scanning on ``exp``; a (values, exp) index on them is never read.
    purges = True
    buffer: StateBuffer
    if mode is Mode.NT:
        buffer, purges = HashBuffer(deletion_key, counters), False
        note = "hash (negatives delete by key)"
    elif mode is Mode.DIRECT:
        buffer, note = ListBuffer(None, counters), "list (DIRECT)"
    elif pattern is WKS:
        buffer, note = FifoBuffer(None, counters), "fifo (WKS root)"
    elif compiled.max_span is None:
        # allow_unbounded_state runs: nothing expires, a list view suffices.
        return chose(BufferView(ListBuffer(None, counters), purges=False,
                                counters=counters),
                     "list (no window: nothing expires)")
    else:
        buffer = PartitionedBuffer(compiled.max_span, config.n_partitions,
                                   None, counters)
        note = f"partitioned ({why})"
    chose(BufferView(buffer, purges, counters), note)
