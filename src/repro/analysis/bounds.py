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
the Section 5.4.1 per-unit-time cost estimate.  Three lint rules consume
it statically:

* **CST801** rejects silently-unbounded state (an ``unbounded`` entry
  while the configuration does not opt in via ``allow_unbounded_state``);
* **CST802** verifies the optimizer's chosen physical buffer *fits* the
  derived bound class under UPA (bounded state in a pattern-blind scan
  list defeats the bound; never-expiring state in an expiration-ring
  mis-slots);
* **CST803** verifies that in checked mode every bounded entry's buffer
  carries a sanitizer monitor, so the drain-time cross-check below
  actually covers the certificate.

At run time, :func:`attach_certificate` (called when a driver is built,
whatever builds it) arms each entry's :class:`~repro.analysis.sanitizer.MonitoredBuffer`
with the entry's expiry horizon; the monitor then tracks, per insert, a
clamped clock estimate, a min-heap of pending expirations (peak unexpired
occupancy) and a sliding arrival window (the certificate's empirical
bound).  :func:`validate_certificate` — called at drain time for
``checked=True`` runs — raises
:class:`~repro.errors.PatternViolation` if observed state ever outlived
its certified horizon or exceeded the certified occupancy bound.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

from ..buffers.listbuffer import ListBuffer
from ..buffers.partitioned import PartitionedBuffer
from ..core.cost import CostModel, PlanCost
from ..core.patterns import MONOTONIC
from ..core.plan import DupElim, GroupBy, Negation
from ..errors import PatternViolation, PlanError
from .rules import (
    Diagnostic,
    LintContext,
    SEVERITY_ERROR,
    _feeding_pattern,
)
from .sanitizer import MonitoredBuffer

#: Symbolic bound classes, in increasing order of concern.
BOUND_WINDOW = "O(window)"
BOUND_DISTINCT = "O(distinct keys)"
BOUND_PARTITIONS = "O(partitions)"
BOUND_UNBOUNDED = "unbounded"


class CertificateEntry:
    """One state slot's symbolic bound plus its runtime monitor (if any).

    ``buffer`` is the physical buffer as compiled (a
    :class:`MonitoredBuffer` in checked mode, the raw structure
    otherwise); ``None`` for symbolic-only stores (group tables, negation
    frequency counts).  ``horizon`` is the largest time a conforming
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

    @property
    def monitor(self) -> MonitoredBuffer | None:
        return self.buffer if isinstance(self.buffer, MonitoredBuffer) \
            else None

    def render(self) -> str:
        kind = type(getattr(self.buffer, "inner", self.buffer)).__name__ \
            if self.buffer is not None else "(symbolic)"
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
        """Multi-line certificate dump (the CLI's --lint-certificate)."""
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


def derive_certificate(compiled: Any,
                       ctx: LintContext | None = None) -> StateCertificate:
    """Derive the symbolic state-bound certificate of a compiled pipeline.

    Pure derivation — no monitors are armed; see
    :func:`attach_certificate` for the runtime-arming entry point.
    """
    root = compiled.root
    annotated = compiled.annotated
    if ctx is None:
        ctx = LintContext(root, annotated, config=compiled.config,
                          compiled=compiled)
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
        pattern = _feeding_pattern(ctx, node, label)
        if pattern is MONOTONIC or unwindowed:
            return BOUND_UNBOUNDED
        return BOUND_WINDOW

    for node in root.walk():
        op = compiled.ops.get(id(node))
        if op is None:
            continue
        path = ctx.path_of(node)
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
    """Derive (or return the cached) certificate and arm its monitors.

    Called when a :class:`~repro.engine.driver.Driver` is built: in
    checked mode every bounded entry's :class:`MonitoredBuffer` starts
    tracking observed peak occupancy against the certified horizon, so
    :func:`validate_certificate` can cross-check at drain time.  Cached
    on ``compiled.certificate`` — re-attaching is a no-op.
    """
    cert = getattr(compiled, "certificate", None)
    if cert is not None:
        return cert
    cert = derive_certificate(compiled)
    compiled.certificate = cert
    if getattr(compiled, "sanitizer", None) is not None:
        for entry in cert.entries:
            monitor = entry.monitor
            if monitor is None or entry.horizon is None \
                    or entry.bound == BOUND_UNBOUNDED:
                continue
            monitor.arm_certificate(
                entry.horizon,
                track_distinct=entry.bound == BOUND_DISTINCT)
    return cert


def validate_certificate(compiled: Any) -> int:
    """Cross-validate observed sanitizer counters against the certificate.

    Returns the number of entries validated; raises
    :class:`PatternViolation` on the first certificate violation.  A
    silent no-op for pipelines without an attached certificate or armed
    monitors (unchecked runs, count-domain plans).
    """
    cert = getattr(compiled, "certificate", None)
    if cert is None:
        return 0
    checked = 0
    for entry in cert.entries:
        monitor = entry.monitor
        if monitor is None or not getattr(monitor, "cert_armed", False):
            continue
        checked += 1
        where = f"{entry.path}:{entry.label}"
        if monitor.cert_lifetime_violations:
            raise PatternViolation(
                f"{where}: {monitor.cert_lifetime_violations} tuple(s) "
                f"outlived the certified horizon {entry.horizon:g} "
                f"({entry.bound} state must expire within one window "
                "extent)")
        if monitor.cert_peak_unexpired > monitor.cert_sliding_peak:
            raise PatternViolation(
                f"{where}: observed peak occupancy "
                f"{monitor.cert_peak_unexpired} exceeds the certified "
                f"sliding-window bound {monitor.cert_sliding_peak} "
                f"({entry.bound}, ~{entry.symbolic})")
        if entry.bound == BOUND_DISTINCT and monitor.inserted:
            distinct = len(monitor.cert_distinct_values)
            live = len(monitor.inner)
            if live > max(distinct, 1):
                raise PatternViolation(
                    f"{where}: {live} live tuples exceed the "
                    f"{distinct} distinct keys observed; O(distinct) "
                    "state holds at most one representative per key")
    return checked


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def rule_cst801_unbounded_state(ctx: LintContext) -> Iterator[Diagnostic]:
    """CST801: silently-unbounded state is rejected.  An entry whose
    symbolic bound is ``unbounded`` (state fed by a never-expiring edge)
    can only be run under an explicit ``allow_unbounded_state`` opt-in;
    re-proved here from the annotated plan so a tampered compile (or a
    configuration swap after compilation) cannot smuggle unbounded state
    past the compile-time guard."""
    compiled = ctx.compiled
    if compiled is None:
        return
    if ctx.config is not None \
            and getattr(ctx.config, "allow_unbounded_state", False):
        return
    cert = derive_certificate(compiled, ctx)
    for entry in cert.entries:
        if entry.bound != BOUND_UNBOUNDED:
            continue
        yield Diagnostic(
            "CST801", SEVERITY_ERROR, entry.path,
            f"{entry.label} state is fed by a never-expiring edge: its "
            "occupancy is unbounded (no window ever purges it) and the "
            "configuration does not opt in via allow_unbounded_state",
            "window every stream feeding stateful operators, or set "
            "allow_unbounded_state=True deliberately",
        )


def rule_cst802_buffer_fits_bound(ctx: LintContext) -> Iterator[Diagnostic]:
    """CST802: the optimizer's chosen physical buffer must fit the derived
    bound class.  Under UPA with a known window span, window/distinct
    bounded state in a pattern-blind scan list pays O(n) expiration scans
    the bound was supposed to eliminate (Section 5.3.2), and
    never-expiring state in a partitioned expiration ring wraps onto live
    partitions (the ring's geometry assumes every tuple leaves within one
    span)."""
    compiled = ctx.compiled
    config = ctx.config
    if compiled is None or config is None:
        return
    from ..engine.strategies import Mode
    if config.mode is not Mode.UPA or compiled.max_span is None:
        return
    cert = derive_certificate(compiled, ctx)
    for entry in cert.entries:
        if entry.buffer is None:
            continue
        inner = getattr(entry.buffer, "inner", entry.buffer)
        if entry.bound in (BOUND_WINDOW, BOUND_DISTINCT) \
                and type(inner) is ListBuffer:
            yield Diagnostic(
                "CST802", SEVERITY_ERROR, entry.path,
                f"{entry.label} state is certified {entry.bound} "
                f"(~{entry.symbolic}) but lives in a pattern-blind scan "
                "list; every expiration pays a full O(n) scan the bound "
                "class was chosen to avoid",
                "use the pattern-appropriate structure (FIFO, partitioned "
                "ring, or hash table)",
            )
        elif entry.bound == BOUND_UNBOUNDED \
                and isinstance(inner, PartitionedBuffer):
            yield Diagnostic(
                "CST802", SEVERITY_ERROR, entry.path,
                f"{entry.label} state never expires but lives in a "
                f"partitioned expiration ring spanning {inner.span}; "
                "tuples outliving the ring wrap onto live partitions",
                "unbounded state needs an unbounded structure (and an "
                "explicit allow_unbounded_state opt-in)",
            )


def rule_cst803_certificate_monitored(ctx: LintContext
                                      ) -> Iterator[Diagnostic]:
    """CST803: in checked mode, every bounded certificate entry's buffer
    must carry a sanitizer monitor — the drain-time certificate
    cross-check reads observed peak occupancy from the monitor, so an
    unmonitored buffer is a hole in the certificate: its state could
    outgrow the bound with no violation ever raised.  Unchecked
    pipelines (no sanitizer) have no runtime cross-check and nothing to
    verify here."""
    compiled = ctx.compiled
    if compiled is None or getattr(compiled, "sanitizer", None) is None:
        return
    cert = derive_certificate(compiled, ctx)
    for entry in cert.entries:
        if entry.buffer is None or entry.bound == BOUND_UNBOUNDED:
            continue
        if not isinstance(entry.buffer, MonitoredBuffer):
            yield Diagnostic(
                "CST803", SEVERITY_ERROR, entry.path,
                f"{entry.label} state is certified {entry.bound} but its "
                f"{type(entry.buffer).__name__} carries no sanitizer "
                "monitor under checked execution; the drain-time "
                "certificate cross-check cannot observe it",
                "compile with checked=True before tampering, or re-wrap "
                "the buffer via the pipeline's sanitizer",
            )


__all__ = [
    "BOUND_DISTINCT",
    "BOUND_PARTITIONS",
    "BOUND_UNBOUNDED",
    "BOUND_WINDOW",
    "CertificateEntry",
    "StateCertificate",
    "attach_certificate",
    "derive_certificate",
    "rule_cst801_unbounded_state",
    "rule_cst802_buffer_fits_bound",
    "rule_cst803_certificate_monitored",
    "validate_certificate",
]
