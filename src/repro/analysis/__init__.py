"""Static verification of update-pattern annotations.

The **plan linter** (:mod:`repro.analysis.planlint`,
:mod:`repro.analysis.rules`) re-derives a plan's Section 5.2 update
patterns independently of :mod:`repro.core.annotate` (UP001) and flags
dead machinery in the user's plan (DM502).
:mod:`repro.analysis.bounds` derives each pipeline's state-bound
certificate.
"""

from .planlint import LintReport, lint, lint_compiled
from .rules import ALL_RULES, Diagnostic, LintContext

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "LintContext",
    "LintReport",
    "lint",
    "lint_compiled",
]
