"""Symbolic state bounds and per-unit-time cost certificates (CST8xx).

Section 5.3's data-structure argument and Section 5.4.1's cost model make
operator state *statically predictable*: under update-pattern-aware
execution, every state buffer's occupancy is bounded by a symbolic class
derivable from the annotated plan —

* ``O(window)`` — state fed by an expiring edge holds at most the tuples
  of one window extent (rate x span live tuples);
* ``O(distinct keys)`` — duplicate-elimination output holds one
  representative per distinct value;
* ``O(partitions)`` — a group-by's aggregate table holds one entry per
  group;
* ``unbounded`` — state fed by a MONOTONIC (never-expiring) edge, or any
  state of a plan with no windows: nothing ever leaves.

:func:`derive_certificate` turns the annotated plan into a
:class:`StateCertificate` — one :class:`CertificateEntry` per state slot
(physical buffers and symbolic-only stores such as group tables), plus
the Section 5.4.1 per-unit-time cost estimate.  Compilation itself
rejects unbounded state the configuration did not opt into
(``allow_unbounded_state``); the certificate names each slot's class.

:func:`attach_certificate` derives and caches the certificate when a
driver is built, whatever builds it; the telemetry sampler sums each
operator's entry sizes into ``op_state_bound``, beside its live state.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

from ..core.annotate import AnnotatedPlan
from ..core.cost import CostModel, PlanCost
from ..core.patterns import MONOTONIC, UpdatePattern
from ..core.plan import (
    DupElim,
    GroupBy,
    Intersect,
    Join,
    LogicalNode,
    Negation,
    RelationJoin,
)
from ..errors import PlanError

#: Symbolic bound classes, in increasing order of concern.
BOUND_WINDOW = "O(window)"
BOUND_DISTINCT = "O(distinct keys)"
BOUND_PARTITIONS = "O(partitions)"
BOUND_UNBOUNDED = "unbounded"


class CertificateEntry:
    """One state slot's symbolic bound.

    ``buffer`` is the physical buffer as compiled; ``None`` for
    symbolic-only stores (group tables, negation frequency counts).
    ``horizon`` is the largest time a conforming
    tuple may live in this slot (the plan's maximum window span), or
    ``None`` when no numeric horizon exists (count-domain plans,
    unbounded slots).  ``size`` is ``symbolic``'s number (``None`` when
    the cost model could not price the plan) and ``op`` the physical
    operator owning the slot (``None`` for the result view) — what the
    telemetry sampler needs to export ``op_state_bound`` beside live state.
    """

    def __init__(self, path: str, label: str, bound: str,
                 sized: tuple[str, float | None],
                 horizon: float | None, buffer: Any = None,
                 op: Any = None) -> None:
        self.path = path
        self.label = label
        self.bound = bound
        self.symbolic, self.size = sized
        self.horizon = horizon
        self.buffer = buffer
        self.op = op

    def render(self) -> str:
        kind = type(self.buffer).__name__ if self.buffer is not None \
            else "(symbolic)"
        horizon = "-" if self.horizon is None else f"{self.horizon:g}"
        return (f"{self.path}:{self.label}  bound={self.bound}  "
                f"size~{self.symbolic}  horizon={horizon}  buffer={kind}")

    def __repr__(self) -> str:
        return f"CertificateEntry({self.path}:{self.label}, {self.bound})"


class StateCertificate:
    """Per-operator symbolic state bounds + the per-unit-time cost."""

    def __init__(self, entries: list[CertificateEntry],
                 cost: PlanCost | None, horizon: float | None,
                 domain: str) -> None:
        self.entries = entries
        self.cost = cost
        self.horizon = horizon
        self.domain = domain

    @property
    def bounded(self) -> bool:
        """True when no entry is unbounded."""
        return all(e.bound != BOUND_UNBOUNDED for e in self.entries)

    def summary(self) -> str:
        """One-line verdict for explain footers and CLI status lines."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.bound] = counts.get(entry.bound, 0) + 1
        parts = [f"{n}x {bound}" for bound, n in counts.items()]
        cost = (f"cost={self.cost.total:.1f}/u" if self.cost is not None
                else "cost=n/a")
        return f"{', '.join(parts) or 'stateless'}; {cost}"

    def render(self) -> str:
        """Multi-line certificate dump (printed by ``repro explain``)."""
        horizon = "-" if self.horizon is None else f"{self.horizon:g}"
        lines = [f"state certificate ({self.domain} domain, "
                 f"horizon={horizon})"]
        lines.extend("  " + entry.render() for entry in self.entries)
        if self.cost is not None:
            lines.append(f"  per-unit-time cost: {self.cost.total:.1f}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"StateCertificate(entries={len(self.entries)}, "
                f"bounded={self.bounded})")


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------

def _feeding_pattern(annotated: AnnotatedPlan, node: LogicalNode,
                     label: str) -> UpdatePattern:
    """Pattern of the edge feeding the named buffer, per strategies.py's
    buffer assignment (a buffer that stores *output* follows the node's
    own pattern)."""
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


def _symbolic_size(bound: str, node: Any,
                   cost: PlanCost | None) -> tuple[str, float | None]:
    """The slot's size estimate as ``(text, number)``."""
    stats = cost.stats.get(id(node)) if cost is not None else None
    if stats is None:
        return bound, None
    if bound == BOUND_UNBOUNDED or stats.size == math.inf:
        return "inf", math.inf
    if bound == BOUND_DISTINCT:
        distinct = max(stats.distinct.values(), default=stats.size)
        keys = min(distinct, stats.size)
        return f"{keys:.0f} keys", keys
    if bound == BOUND_PARTITIONS:
        return f"{stats.size:.0f} groups", stats.size
    return f"{stats.size:.0f} tuples (rate x span)", stats.size


def _with_paths(node: LogicalNode,
                path: str = "$") -> Iterator[tuple[LogicalNode, str]]:
    """``(node, path)`` for every node of the subtree, children before
    parents; a path names each step from the root as ``Type[slot]``."""
    for slot, child in enumerate(node.children):
        yield from _with_paths(child,
                               f"{path}/{type(child).__name__}[{slot}]")
    yield node, path


def derive_certificate(compiled: Any) -> StateCertificate:
    """Derive the symbolic state-bound certificate of a compiled pipeline
    (:func:`attach_certificate` is the cached entry point)."""
    root = compiled.root
    annotated = compiled.annotated
    domain = compiled.time_domain
    horizon = compiled.max_span if domain == "time" else None
    unwindowed = compiled.max_span is None
    try:
        cost = CostModel().estimate(root, annotated)
    except PlanError:
        # Shared-group member plans contain SharedScan cuts the cost
        # model cannot price; the bounds themselves do not need it.
        cost = None
    entries: list[CertificateEntry] = []

    def classify(node: Any, label: str) -> str:
        if isinstance(node, DupElim) and label == "output":
            return BOUND_DISTINCT
        pattern = _feeding_pattern(annotated, node, label)
        if pattern is MONOTONIC or unwindowed:
            return BOUND_UNBOUNDED
        return BOUND_WINDOW

    for node, path in _with_paths(root):
        op = compiled.ops.get(id(node))
        if op is None:
            continue
        for label, buffer in op.state_buffers():
            if buffer is None:
                continue
            bound = classify(node, label)
            entry_horizon = horizon if bound != BOUND_UNBOUNDED else None
            entries.append(CertificateEntry(
                path, label, bound, _symbolic_size(bound, node, cost),
                entry_horizon, buffer, op))
        if isinstance(node, GroupBy):
            entries.append(CertificateEntry(
                path, "groups", BOUND_PARTITIONS,
                _symbolic_size(BOUND_PARTITIONS, node, cost), None, op=op))
        elif isinstance(node, Negation):
            bound = BOUND_UNBOUNDED if unwindowed else BOUND_WINDOW
            entries.append(CertificateEntry(
                path, "frequency-counts", bound,
                _symbolic_size(bound, node.children[0], cost), None, op=op))
    view = getattr(compiled, "view", None)
    view_buffer = getattr(view, "_buffer", None)
    if view_buffer is not None:
        if isinstance(root, DupElim):
            bound = BOUND_DISTINCT
        elif unwindowed or annotated.pattern_of(root) is MONOTONIC:
            bound = BOUND_UNBOUNDED
        else:
            bound = BOUND_WINDOW
        entry_horizon = horizon if bound != BOUND_UNBOUNDED else None
        entries.append(CertificateEntry(
            "$", "result-view", bound, _symbolic_size(bound, root, cost),
            entry_horizon, view_buffer))
    return StateCertificate(entries, cost, horizon, domain)


def attach_certificate(compiled: Any) -> StateCertificate:
    """Derive (or return the cached) certificate of ``compiled``.

    Called when a :class:`~repro.engine.driver.Driver` is built, so the
    derivation is paid at setup, not inside the first telemetry sample.
    Cached on ``compiled.certificate`` — re-attaching is a no-op.
    """
    if compiled.certificate is None:
        compiled.certificate = derive_certificate(compiled)
    return compiled.certificate


__all__ = [
    "BOUND_DISTINCT",
    "BOUND_PARTITIONS",
    "BOUND_UNBOUNDED",
    "BOUND_WINDOW",
    "CertificateEntry",
    "StateCertificate",
    "attach_certificate",
    "derive_certificate",
]
