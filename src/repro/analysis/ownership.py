"""Closure-capture analysis over a driver's compiled closures (ALS702).

The driver compiles the compiled query's tables into closures once.  A
closure that captures a :class:`~repro.core.plan.LogicalNode` ties the
hot path to the planning representation the compile was supposed to seal
away.  Such a capture changes no answer, counter or state, so no test or
oracle run can see it; this rule is its only check.  It is what remains
of the ownership series (ALS701–703): the mutation audit in RESULTS.md
("lint audit") found the aliasing defects the other two rules looked for
killed by the test suite, and they were deleted.
"""

from __future__ import annotations

from types import FunctionType, MethodType
from typing import Any, Iterator

from ..core.plan import LogicalNode
from .rules import Diagnostic, LintContext, SEVERITY_ERROR


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


__all__ = ["rule_als702_stale_captures"]
