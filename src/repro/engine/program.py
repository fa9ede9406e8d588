"""Execution-program IR: the compiled event-loop shared by every regime.

The paper's processing model (Section 2) is one loop — expire, dispatch,
propagate, purge, deliver — whose *content* is derived statically from the
plan's update patterns (Sections 5.2–5.4).  This module makes that loop an
explicit, precomputed object: :func:`build_program` flattens a
:class:`~repro.engine.strategies.CompiledQuery` into an
:class:`ExecutionProgram` — per-stream dispatch tables with fused
kernel prefixes and resolved routes, the eager/lazy expiration
participant lists, and an explicit :class:`Step` sequence — and
:mod:`repro.engine.driver` runs any such program in per-tuple or micro-batch
mode.  Per-tuple execution, micro-batching, shared groups
(``sharing.py``: producers and members alike, a shared subtree being one
more source leaf of the member's program) and key-sharded workers
(``shard.py``) all run these programs on that driver; none carries a
private event-loop copy.

Because the program is a plain data object, it can also be *cross-checked*:
the PRG6xx lint rules (``analysis/rules.py``) re-derive the expected step
structure from the annotated plan and compare it against the compiled
program (routes cover every edge, expiration participants match the
update-pattern classification, fused prefixes are stateless).
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

from ..operators.stateless import PortOp, WindowOp

#: The driver's step vocabulary, in execution order.
STEP_KINDS = ("EXPIRE", "DISPATCH", "PROPAGATE", "PURGE", "DELIVER")


class DispatchPlan(NamedTuple):
    """One leaf's precompiled arrival plan for a stream.

    ``prefix`` is the maximal chain of stateless operators directly above
    the leaf that expose a :meth:`kernel` — inlined per tuple by the
    arrival closures, evaluated over whole columns by the column loop — and
    ``suffix`` is the remaining route, run stage by stage through
    ``process_batch``.  Fusing only reorders *how* the same
    per-tuple work is expressed; outputs, state transitions and counter
    charges are unchanged.  A shared port is a leaf too: it replays a list
    per arrival, so its prefix is empty and its suffix is the whole route.
    """

    leaf: WindowOp | PortOp
    prefix: tuple  # ((op, kind, arg), ...) from kernel()
    suffix: tuple  # ((parent, slot), ...) remaining route to the root


@dataclasses.dataclass(frozen=True)
class Step:
    """One named stage of the event loop, with a human-readable detail."""

    kind: str
    detail: str


class ExecutionProgram:
    """A flattened, precomputed event-loop program for one pipeline.

    Everything the driver needs per event is resolved here once, at
    compile time: no plan walks, no route lookups through the logical
    tree, no lazily-built caches on the hot path.
    """

    __slots__ = ("compiled", "dispatch", "routes", "expire_ops", "lazy_ops",
                 "leaf_bindings", "relations", "relation_bindings",
                 "time_domain", "count_stream", "steps", "layers")

    def __init__(self, compiled, dispatch, routes, expire_ops, lazy_ops,
                 steps, layers):
        self.compiled = compiled
        #: stream name -> tuple[DispatchPlan] (covers every leaf binding).
        self.dispatch = dispatch
        #: id(op) -> resolved route to the root (shared with the compile).
        self.routes = routes
        self.expire_ops = expire_ops
        self.lazy_ops = lazy_ops
        self.leaf_bindings = compiled.leaf_bindings
        self.relations = compiled.relations
        self.relation_bindings = compiled.relation_bindings
        self.time_domain = compiled.time_domain
        self.count_stream = compiled.count_stream
        #: The explicit step list, in execution order.
        self.steps = steps
        #: Instrumentation layers wrapped around this program's operators
        #: ("checked"; metrics are taken inside the driver's loops, not
        #: layered).
        self.layers = layers

    def fused_op_count(self) -> int:
        return sum(len(plan.prefix)
                   for plans in self.dispatch.values() for plan in plans)

    def describe(self) -> str:
        """One-line summary for the ``-- program:`` explain footer."""
        layers = "+".join(self.layers) if self.layers else "none"
        return (f"{'>'.join(step.kind for step in self.steps)}"
                f" | streams={len(self.dispatch)}"
                f" fused={self.fused_op_count()}"
                f" expire={len(self.expire_ops)}"
                f" lazy={len(self.lazy_ops)}"
                f" layers={layers}")

    def __repr__(self) -> str:
        return f"ExecutionProgram({self.describe()})"


def build_program(compiled) -> ExecutionProgram:
    """Flatten a compiled pipeline into an :class:`ExecutionProgram`.

    Also records the program on ``compiled.program`` so explain footers and
    the PRG6xx lint rules inspect the very object the driver runs.
    """
    dispatch: dict[str, tuple[DispatchPlan, ...]] = {}
    for stream, leaves in compiled.leaf_bindings.items():
        plans = []
        for leaf in leaves:
            route = list(compiled.route_of(leaf))
            prefix = []
            split = 0
            # A port replays lists, not single tuples: nothing to inline.
            for parent, _slot in (() if isinstance(leaf, PortOp) else route):
                kernel = parent.kernel()
                if kernel is None:
                    break
                prefix.append((parent, kernel[0], kernel[1]))
                split += 1
            plans.append(DispatchPlan(leaf, tuple(prefix),
                                      tuple(route[split:])))
        dispatch[stream] = tuple(plans)
    expire_ops = tuple(compiled.expire_ops)
    lazy_ops = tuple(compiled.lazy_ops)
    layers = ["checked"] if compiled.sanitizer is not None else []
    fused = sum(len(plan.prefix)
                for plans in dispatch.values() for plan in plans)
    steps = (
        Step("EXPIRE", f"{len(expire_ops)} eager participant(s), bottom-up"),
        Step("DISPATCH", f"{len(dispatch)} stream table(s), "
                         f"{fused} fused prefix op(s)"),
        Step("PROPAGATE", f"{len(compiled.routes)} resolved route(s)"),
        Step("PURGE", f"{len(lazy_ops)} lazily-maintained op(s)"),
        Step("DELIVER", f"{type(compiled.view).__name__} + subscribers"),
    )
    program = ExecutionProgram(compiled, dispatch, compiled.routes,
                               expire_ops, lazy_ops, steps, layers)
    compiled.program = program
    return program
