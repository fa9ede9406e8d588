"""Corpus of known-bad plans: one case per static lint rule.

Each :class:`BadPlan` names the rule it must trip and builds a
:class:`repro.analysis.planlint.LintReport` demonstrating the violation.
The corpus is the linter's positive test fixture (every rule provably
fires) and doubles as executable documentation of what each rule catches.
Plans are deliberately *constructed* to be wrong — by a lying annotation
the production annotator never produces, or by dead machinery in a plan
the user wrote.
"""

from .cases import CORPUS, BadPlan

__all__ = ["CORPUS", "BadPlan"]
