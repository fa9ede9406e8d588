"""Plan linting: run the static rule catalogue and render diagnostics.

The linter re-derives the plan's update patterns independently and flags
dead machinery in it (see :mod:`repro.analysis.rules`).  Two entry points:

* :func:`lint` — check one plan (optionally against its annotations);
* :func:`lint_compiled` — convenience over a :class:`CompiledQuery`,
  checking the annotations the pipeline was compiled from.

All return a :class:`LintReport`; ``report.ok`` is True when no
error-severity diagnostic fired (warnings do not fail a plan).
"""

from __future__ import annotations

from typing import Any

from ..core.annotate import AnnotatedPlan, annotate
from ..core.plan import LogicalNode
from .rules import ALL_RULES, Diagnostic, LintContext, PLAN_RULES


class LintReport:
    """Outcome of a lint run: diagnostics plus how many rules executed."""

    def __init__(self, diagnostics: list[Diagnostic],
                 rules_run: int) -> None:
        self.diagnostics = list(diagnostics)
        self.rules_run = rules_run

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def ok(self) -> bool:
        """True when no error fired (warnings are advisory)."""
        return not self.errors

    def summary(self) -> str:
        """One-line verdict for explain footers and CLI status lines."""
        if not self.diagnostics:
            return f"clean ({self.rules_run} rules)"
        parts = []
        if self.errors:
            parts.append(f"{len(self.errors)} error(s)")
        if self.warnings:
            parts.append(f"{len(self.warnings)} warning(s)")
        worst = self.diagnostics[0]
        for d in self.diagnostics:
            if d.is_error:
                worst = d
                break
        return f"{', '.join(parts)} — first: {worst.rule} {worst.message}"

    def render(self) -> str:
        """Multi-line human-readable report (the CLI's output)."""
        if not self.diagnostics:
            return f"plan is clean: {self.rules_run} rules, 0 diagnostics"
        lines = [d.render() for d in self.diagnostics]
        lines.append(f"{len(self.errors)} error(s), "
                     f"{len(self.warnings)} warning(s) "
                     f"from {self.rules_run} rules")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"LintReport(errors={len(self.errors)}, "
                f"warnings={len(self.warnings)}, rules={self.rules_run})")


def lint(plan: LogicalNode, *,
         annotated: AnnotatedPlan | None = None) -> LintReport:
    """Run every static rule over ``plan``.

    ``annotated`` defaults to a fresh :func:`annotate` pass — pass the
    pipeline's own :class:`AnnotatedPlan` to verify the annotations actually
    in use.
    """
    annotated = annotated if annotated is not None else annotate(plan)
    ctx = LintContext(plan, annotated)
    diagnostics: list[Diagnostic] = []
    for _rule_id, rule in PLAN_RULES:
        diagnostics.extend(rule(ctx))
    return LintReport(diagnostics, len(PLAN_RULES))


def lint_compiled(compiled: Any) -> LintReport:
    """Lint a compiled pipeline's plan against its live annotations."""
    return lint(compiled.root, annotated=compiled.annotated)


__all__ = ["Diagnostic", "LintReport", "lint", "lint_compiled", "ALL_RULES"]
