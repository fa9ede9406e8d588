"""Static ownership and aliasing analysis over compiled pipelines (ALS7xx).

PR 5's ``NULL_COUNTERS`` bug — a shared mutable counter sink silently
aliased into every pipeline compiled with counters disabled — is exactly
the class of defect no runtime monitor catches: each individual operation
is well-formed, only the *ownership* of the mutated object is wrong.  This
module re-proves ownership statically, over the same compiled artifacts
the engine runs:

* every operator state buffer, the result view's backing store, and the
  counter/telemetry sinks are collected into an **ownership graph** via a
  type-gated reachability walk (:func:`reachable_mutables`);
* **ALS701** proves each mutable state object is reachable from exactly
  one owner slot of its pipeline (one ``(operator, slot)`` pair or the
  result view) — the same object aliased into two slots means one
  operator's mutations corrupt another's invariants;
* **ALS702** walks the driver's compiled closures (``__closure__`` cells,
  recursively through containers and nested functions) and proves no
  closure captured a pre-seal :class:`~repro.core.plan.LogicalNode` — a
  captured plan object ties the hot path to the mutable planning
  representation the compile was supposed to seal away;
* **ALS703** intersects the pipeline's reachable set with module-level
  mutable globals of every loaded ``repro`` module: a compiled path that
  can mutate a module global aliases state across every pipeline in the
  process (the ``NULL_COUNTERS`` defect class).

Shared-by-design objects are whitelisted: the write-discarding null sink
(:class:`~repro.core.metrics.NullCounters`) and anything registered through
:func:`register_shared_sink` (e.g. a refcounted shared-producer port).

:func:`shared_mutable_state` is the cross-scope companion used by tests:
given several compiled pipelines (shard replicas, shared-group members),
it reports every non-whitelisted mutable state object reachable from more
than one of them.
"""

from __future__ import annotations

import sys
from collections import deque
from types import FunctionType, MethodType, ModuleType
from typing import Any, Iterable, Iterator

from ..buffers.base import StateBuffer
from ..core.metrics import Counters, NullCounters
from ..core.plan import LogicalNode
from .rules import Diagnostic, LintContext, SEVERITY_ERROR

#: Plain containers treated as mutable sinks when module-global.
_MUTABLE_CONTAINERS = (list, dict, set, deque)

#: ids of objects explicitly whitelisted as shared-by-design (beyond the
#: structural whitelist of null sinks); see :func:`register_shared_sink`.
_SHARED_SINK_IDS: set[int] = set()


def register_shared_sink(obj: Any) -> None:
    """Whitelist ``obj`` as a deliberately shared mutable sink.

    Use for refcounted shared-producer structures whose cross-scope
    reachability is the design, not a defect.  Null sinks (write-
    discarding counters/registries) are whitelisted structurally and need
    no registration.
    """
    _SHARED_SINK_IDS.add(id(obj))


def _is_whitelisted(obj: Any) -> bool:
    if id(obj) in _SHARED_SINK_IDS:
        return True
    if isinstance(obj, NullCounters):
        return True
    # The columnar shard transport's shared-memory segments are shared by
    # construction (parent packs columns in, fork-inherited workers decode
    # them out) — that is the transport contract, not an aliasing defect:
    # segment contents never hold pipeline state, only the in-flight wire
    # encoding of one chunk, and the pipe protocol serializes access.
    from multiprocessing import shared_memory
    return isinstance(obj, shared_memory.SharedMemory)


# ---------------------------------------------------------------------------
# Type-gated reachability
# ---------------------------------------------------------------------------

def _expand(obj: Any) -> Iterator[tuple[str, Any]]:
    """Children of ``obj`` in the ownership graph.

    Deliberately type-gated: only structures whose layout the engine owns
    are expanded (containers, functions/closures, buffers, operators,
    views).  Arbitrary ``__dict__`` walking would drag in back-references
    (driver -> compiled -> plan) and make every object "reachable" from
    everything.
    """
    if isinstance(obj, (list, tuple, set, frozenset, deque)):
        for i, item in enumerate(obj):
            yield f"[{i}]", item
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield f"[{key!r}]", value
        return
    if isinstance(obj, MethodType):
        yield ".__func__", obj.__func__
        return
    if isinstance(obj, FunctionType):
        names = obj.__code__.co_freevars
        cells = obj.__closure__ or ()
        for name, cell in zip(names, cells):
            try:
                yield f"<capture {name}>", cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                continue
        for i, default in enumerate(obj.__defaults__ or ()):
            yield f"<default {i}>", default
        return
    # Checked-mode monitor: unwrap to the structure it guards.
    inner = getattr(obj, "inner", None)
    if isinstance(obj, StateBuffer):
        if inner is not None:
            yield ".inner", inner
        counters = getattr(obj, "counters", None)
        if counters is not None:
            yield ".counters", counters
        return
    # Physical operators and result views expose their state explicitly.
    buffers = getattr(obj, "state_buffers", None)
    if callable(buffers):
        for label, buffer in buffers():
            if buffer is not None:
                yield f".{label}", buffer
        counters = getattr(obj, "counters", None)
        if counters is not None:
            yield ".counters", counters
        return
    for attr in ("_buffer", "_store", "_results"):
        value = getattr(obj, attr, None)
        if value is not None:
            yield f".{attr}", value


def _is_mutable_state(obj: Any) -> bool:
    """Is ``obj`` a mutable object the ownership analysis cares about?"""
    if isinstance(obj, (Counters, StateBuffer)):
        return True
    if isinstance(obj, _MUTABLE_CONTAINERS):
        return True
    # Shared-memory segments ARE mutable state — the analysis must see
    # them (so the transport whitelist in _is_whitelisted is a deliberate,
    # visible exemption rather than a blind spot).
    from multiprocessing import shared_memory
    if isinstance(obj, shared_memory.SharedMemory):
        return True
    from ..engine.telemetry import MetricsRegistry
    from ..engine.views import ResultView
    return isinstance(obj, (MetricsRegistry, ResultView))


def reachable_mutables(roots: Iterable[tuple[str, Any]]
                       ) -> dict[int, tuple[Any, str]]:
    """Every mutable state object reachable from ``roots``.

    ``roots`` is an iterable of ``(name, object)`` pairs; the result maps
    ``id(obj)`` to ``(obj, access_path)`` for the first path that reached
    it.  The walk is breadth-first over :func:`_expand`'s type gate.
    """
    found: dict[int, tuple[Any, str]] = {}
    visited: set[int] = set()
    queue: deque[tuple[str, Any]] = deque(roots)
    while queue:
        path, obj = queue.popleft()
        if obj is None or id(obj) in visited:
            continue
        visited.add(id(obj))
        if _is_mutable_state(obj):
            found.setdefault(id(obj), (obj, path))
        for edge, child in _expand(obj):
            queue.append((path + edge, child))
    return found


def _pipeline_roots(compiled: Any, driver: Any = None
                    ) -> Iterator[tuple[str, Any]]:
    """The named entry points of one compiled pipeline's ownership graph."""
    ops = getattr(compiled, "ops", {})
    for op in ops.values():
        yield f"op:{type(op).__name__}", op
    view = getattr(compiled, "view", None)
    if view is not None:
        yield "view", view
    counters = getattr(compiled, "counters", None)
    if counters is not None:
        yield "counters", counters
    yield "metrics", getattr(compiled, "metrics", None)
    if driver is not None:
        introspect = getattr(driver, "introspection_roots", None)
        if callable(introspect):
            for name, obj in introspect().items():
                yield f"driver.{name}", obj
        closures = getattr(driver, "compiled_closures", None)
        if callable(closures):
            for name, fn in closures():
                yield f"driver.{name}", fn


def _state_slots(ctx: LintContext) -> Iterator[tuple[str, str, Any]]:
    """Every ``(owner_path, slot_label, buffer)`` of the compiled pipeline:
    operator state buffers (monitors unwrapped) plus the result view's
    backing store."""
    compiled = ctx.compiled
    for node in ctx.root.walk():
        op = compiled.ops.get(id(node))
        if op is None:
            continue
        for label, buffer in op.state_buffers():
            if buffer is None:
                continue
            yield ctx.path_of(node), label, getattr(buffer, "inner", buffer)
    # A state view has no store: it reads its root operator's, listed above.
    view = getattr(compiled, "view", None)
    for attr in ("_buffer", "_store", "_results"):
        store = getattr(view, attr, None)
        if store is not None:
            yield "$", "result-view", getattr(store, "inner", store)
            return


# ---------------------------------------------------------------------------
# Cross-scope helper (tests: shard replicas, shared-group members)
# ---------------------------------------------------------------------------

def shared_mutable_state(pipelines: Iterable[tuple[str, Any]]
                         ) -> list[tuple[str, list[str]]]:
    """Mutable state objects reachable from more than one pipeline scope.

    ``pipelines`` is an iterable of ``(scope_name, compiled)`` pairs —
    shard replicas, shared-group member pipelines, or independent queries.
    Returns ``(description, [scopes...])`` for every non-whitelisted
    mutable object owned by two or more scopes.  An empty list is the
    isolation proof sharded and grouped execution rely on.
    """
    owners: dict[int, tuple[Any, str, list[str]]] = {}
    for scope, compiled in pipelines:
        reach = reachable_mutables(_pipeline_roots(compiled))
        for obj_id, (obj, path) in reach.items():
            entry = owners.get(obj_id)
            if entry is None:
                owners[obj_id] = (obj, path, [scope])
            elif scope not in entry[2]:
                entry[2].append(scope)
    shared = []
    for obj, path, scopes in owners.values():
        if len(scopes) > 1 and not _is_whitelisted(obj):
            shared.append((f"{type(obj).__name__} at {path}", scopes))
    return shared


# ---------------------------------------------------------------------------
# ALS701 — exclusive ownership of mutable state within one pipeline
# ---------------------------------------------------------------------------

def rule_als701_exclusive_ownership(ctx: LintContext) -> Iterator[Diagnostic]:
    """ALS701: each mutable state buffer of a compiled pipeline must be
    owned by exactly one slot — one ``(operator, slot)`` pair or the
    result view.  The same object aliased into two slots means one
    operator's inserts/purges silently corrupt another's state (the
    defect class of PR 5's shared counter sink, now for buffers)."""
    if ctx.compiled is None:
        return
    owners: dict[int, tuple[Any, list[str]]] = {}
    for path, label, inner in _state_slots(ctx):
        slot = f"{path}:{label}"
        entry = owners.get(id(inner))
        if entry is None:
            owners[id(inner)] = (inner, [slot])
        else:
            entry[1].append(slot)
    for obj, slots in owners.values():
        if len(slots) < 2 or _is_whitelisted(obj):
            continue
        yield Diagnostic(
            "ALS701", SEVERITY_ERROR, slots[0].rsplit(":", 1)[0],
            f"one {type(obj).__name__} instance is aliased into "
            f"{len(slots)} state slots ({', '.join(slots)}); mutable "
            "state must have exactly one owner scope",
            "give each operator slot its own buffer instance (or register "
            "a deliberately shared structure with "
            "analysis.ownership.register_shared_sink)",
        )


# ---------------------------------------------------------------------------
# ALS702 — stale captures in compiled closures
# ---------------------------------------------------------------------------

def _captured_values(fn: Any, visited: set[int]) -> Iterator[tuple[str, Any]]:
    """Objects captured (directly or through containers and nested
    functions) by the closure ``fn``."""
    if id(fn) in visited:
        return
    visited.add(id(fn))
    if isinstance(fn, MethodType):
        yield from _captured_values(fn.__func__, visited)
        return
    if not isinstance(fn, FunctionType):
        return
    pending: list[tuple[str, Any]] = []
    names = fn.__code__.co_freevars
    for name, cell in zip(names, fn.__closure__ or ()):
        try:
            pending.append((name, cell.cell_contents))
        except ValueError:  # pragma: no cover - empty cell
            continue
    for i, default in enumerate(fn.__defaults__ or ()):
        pending.append((f"default[{i}]", default))
    while pending:
        name, value = pending.pop()
        if id(value) in visited:
            continue
        if isinstance(value, (FunctionType, MethodType)):
            yield from _captured_values(value, visited)
            continue
        yield name, value
        if isinstance(value, (list, tuple, set, frozenset)):
            visited.add(id(value))
            pending.extend((f"{name}[{i}]", item)
                           for i, item in enumerate(value))
        elif isinstance(value, dict):
            visited.add(id(value))
            pending.extend((f"{name}[{key!r}]", item)
                           for key, item in value.items())


def rule_als702_stale_captures(ctx: LintContext) -> Iterator[Diagnostic]:
    """ALS702: the driver's compiled closures must not capture pre-seal
    plan objects.  A captured :class:`LogicalNode` ties the hot path to
    the mutable planning representation the compile was supposed to seal
    away.  Skips silently when no driver is supplied (nothing has compiled
    closures yet)."""
    driver = ctx.driver
    if driver is None or ctx.compiled is None:
        return
    visited: set[int] = set()
    for name, fn in driver.compiled_closures():
        for capture, value in _captured_values(fn, visited):
            if isinstance(value, LogicalNode):
                yield Diagnostic(
                    "ALS702", SEVERITY_ERROR, "$",
                    f"closure {name!r} captures the logical plan node "
                    f"{value.describe()} (cell {capture!r}); compiled "
                    "closures must bind physical structures only — plan "
                    "objects are pre-seal planning state",
                    "rebuild the driver from the compiled query "
                    "(engine.driver.Driver)",
                )


# ---------------------------------------------------------------------------
# ALS703 — module-level mutable sinks reachable from compiled paths
# ---------------------------------------------------------------------------

def _module_sink_candidates() -> Iterator[tuple[str, str, Any]]:
    """Module-level mutable globals of every loaded ``repro`` module."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not isinstance(module, ModuleType):
            continue
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for attr, obj in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, (Counters, StateBuffer)) \
                    or isinstance(obj, _MUTABLE_CONTAINERS):
                yield mod_name, attr, obj


def rule_als703_module_level_sinks(ctx: LintContext) -> Iterator[Diagnostic]:
    """ALS703: no mutable module-level object may be reachable from a
    compiled pipeline's mutation paths.  A module global aliased into a
    pipeline (PR 5's ``NULL_COUNTERS`` bug: a shared mutable counter sink
    installed as every disabled pipeline's counters) accumulates writes
    across *every* pipeline in the process — cross-test, cross-query
    contamination that no per-run check can see.  Write-discarding null
    sinks are shared by design and whitelisted."""
    compiled = ctx.compiled
    if compiled is None:
        return
    reach = reachable_mutables(_pipeline_roots(compiled, ctx.driver))
    for mod_name, attr, obj in _module_sink_candidates():
        if _is_whitelisted(obj):
            continue
        hit = reach.get(id(obj))
        if hit is None:
            continue
        _, path = hit
        yield Diagnostic(
            "ALS703", SEVERITY_ERROR, "$",
            f"the module-level mutable {type(obj).__name__} "
            f"{mod_name}.{attr} is reachable from this compiled pipeline "
            f"(via {path}); module globals alias state across every "
            "pipeline in the process",
            "give the pipeline its own instance (or make the shared sink "
            "write-discarding and register it as a shared sink)",
        )


__all__ = [
    "reachable_mutables",
    "register_shared_sink",
    "rule_als701_exclusive_ownership",
    "rule_als702_stale_captures",
    "rule_als703_module_level_sinks",
    "shared_mutable_state",
]
