"""Static and dynamic verification of update-pattern annotations.

Two layers (both introduced in the same PR, both optional at run time):

* the **plan linter** (:mod:`repro.analysis.planlint`,
  :mod:`repro.analysis.rules`) statically re-proves the invariants the
  engine assumes — pattern propagation per Section 5.2, buffer choices,
  rewrite legality, sharding consistency — over logical plans and
  compiled pipelines;
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
