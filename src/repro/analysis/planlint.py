"""Plan linting: run the static rule catalogue and render diagnostics.

The linter re-proves the invariants the engine assumes (see
:mod:`repro.analysis.rules`) instead of trusting the code that established
them.  Three entry points:

* :func:`lint` — check one plan (optionally with its config and compiled
  pipeline);
* :func:`lint_rewrite` — check an optimizer *output* plan against the
  original it was rewritten from, re-proving the rewrite preconditions;
* :func:`lint_compiled` — convenience over a :class:`CompiledQuery`.

All return a :class:`LintReport`; ``report.ok`` is True when no
error-severity diagnostic fired (warnings do not fail a plan).
"""

from __future__ import annotations

from typing import Any

from ..core.annotate import AnnotatedPlan, annotate
from ..core.plan import LogicalNode
from .rules import (
    ALL_RULES,
    Diagnostic,
    LintContext,
    PLAN_RULES,
    REWRITE_RULES,
)


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

    def merged(self, other: "LintReport") -> "LintReport":
        return LintReport(self.diagnostics + other.diagnostics,
                          self.rules_run + other.rules_run)

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


def lint(plan: LogicalNode, config: Any = None, *,
         annotated: AnnotatedPlan | None = None,
         compiled: Any = None, driver: Any = None) -> LintReport:
    """Run every applicable static rule over ``plan``.

    ``annotated`` defaults to a fresh :func:`annotate` pass — pass the
    pipeline's own :class:`AnnotatedPlan` to verify the annotations actually
    in use.  ``compiled`` enables the rules that read the compiled
    pipeline (BUF103, PRG602, CST801);
    ``driver`` enables the closure-capture check (ALS702) over the
    driver's compiled closures.
    """
    annotated = annotated if annotated is not None else annotate(plan)
    ctx = LintContext(plan, annotated, config=config, compiled=compiled,
                      driver=driver)
    diagnostics: list[Diagnostic] = []
    for _rule_id, rule in PLAN_RULES:
        diagnostics.extend(rule(ctx))
    return LintReport(diagnostics, len(PLAN_RULES))


def lint_rewrite(original: LogicalNode, candidate: LogicalNode,
                 config: Any = None) -> LintReport:
    """Verify an optimizer-produced ``candidate`` against its ``original``.

    Runs the full plan catalogue on the candidate plus the pairwise rewrite
    rules: preservation of output schema and window leaves, and the
    preconditions of negation pull-up and duplicate-elimination push-down
    re-proved on the candidate's structure (Section 5.4.2).
    """
    report = lint(candidate, config)
    annotated = annotate(candidate)
    ctx = LintContext(candidate, annotated, config=config)
    diagnostics: list[Diagnostic] = []
    for _rule_id, rule in REWRITE_RULES:
        diagnostics.extend(rule(original, candidate, ctx))
    return report.merged(LintReport(diagnostics, len(REWRITE_RULES)))


def lint_compiled(compiled: Any, *, driver: Any = None) -> LintReport:
    """Lint a compiled pipeline: its plan, its live annotations and its
    state buffers (plus, when a ``driver`` is supplied, its compiled
    closures)."""
    return lint(compiled.root, compiled.config,
                annotated=compiled.annotated, compiled=compiled,
                driver=driver)


__all__ = ["Diagnostic", "LintReport", "lint", "lint_rewrite",
           "lint_compiled", "ALL_RULES"]
