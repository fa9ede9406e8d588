"""Static verification of update-pattern annotations.

The **plan linter** (:mod:`repro.analysis.planlint`,
:mod:`repro.analysis.rules`) statically checks what the engine is given —
pattern propagation per Section 5.2, rewrite legality, NRR
non-retroactivity, dead machinery, unbounded state — over logical plans
and compiled pipelines.  :mod:`repro.analysis.bounds` derives each
pipeline's CST8xx state-bound certificate.
"""

from .planlint import LintReport, lint, lint_compiled, lint_rewrite
from .rules import ALL_RULES, Diagnostic, LintContext

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "LintContext",
    "LintReport",
    "lint",
    "lint_compiled",
    "lint_rewrite",
]
