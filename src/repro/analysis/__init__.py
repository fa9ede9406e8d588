"""Static and dynamic verification of update-pattern annotations.

Two layers, both optional at run time:

* the **plan linter** (:mod:`repro.analysis.planlint`,
  :mod:`repro.analysis.rules`) statically checks what the engine is
  given — pattern propagation per Section 5.2, rewrite legality, NRR
  non-retroactivity, dead machinery, unbounded state — over logical
  plans and compiled pipelines;
* the **sanitizer** (:mod:`repro.analysis.sanitizer`) dynamically
  monitors a running pipeline under ``ExecutionConfig(checked=True)``,
  asserting FIFO/exp-exact expiration, negative-tuple provenance and
  counter conservation on every event.
"""

from .planlint import LintReport, lint, lint_compiled, lint_rewrite
from .rules import ALL_RULES, Diagnostic, LintContext
from .sanitizer import MonitoredBuffer, Sanitizer

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "LintContext",
    "LintReport",
    "lint",
    "lint_compiled",
    "lint_rewrite",
    "MonitoredBuffer",
    "Sanitizer",
]
