"""The known-bad-plan corpus: one constructed violation per lint rule.

Every :data:`CORPUS` entry builds a plan that provably trips the rule it
names.  Each is input the engine is handed rather than output it
produces — a lying annotation, a plan with dead machinery — which is what
the linter exists to check.

The corpus is consumed by ``tests/test_planlint.py`` (every rule must
fire on its case and must *not* fire on the clean paper queries) and by
the ``repro lint`` documentation as a catalogue of what each rule means.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.analysis.planlint import LintReport, lint
from repro.core.annotate import annotate
from repro.core.patterns import MONOTONIC
from repro.core.plan import DupElim, Project, WindowScan
from repro.workloads import queries
from repro.workloads.traffic import TrafficTraceGenerator

#: One window size for every case — geometry is irrelevant to the rules.
WINDOW = 50.0

_GEN = TrafficTraceGenerator()


def _link(index: int) -> WindowScan:
    """A fresh scan of traffic link ``index`` under the corpus window."""
    return WindowScan(_GEN.stream_def(index, WINDOW))


@dataclasses.dataclass(frozen=True)
class BadPlan:
    """One corpus entry: the rule it must trip and how to demonstrate it."""

    name: str
    rule: str
    description: str
    build: Callable[[], LintReport]

    def report(self) -> LintReport:
        """Build the case and lint it."""
        return self.build()


# ---------------------------------------------------------------------------
# UP — lying annotations
# ---------------------------------------------------------------------------

def _up001_tampered_annotation() -> LintReport:
    """Annotate Query 1 correctly, then flip the root join's pattern to
    MONOTONIC — the kind of corruption a caching bug in the annotation
    layer would produce.  Rules 1-5 re-derive WK for a join of windows."""
    plan = queries.query1(_GEN, WINDOW)
    annotated = annotate(plan)
    annotated._patterns[id(plan)] = MONOTONIC  # the lie
    return lint(plan, annotated=annotated)


# ---------------------------------------------------------------------------
# DM — dead machinery (warnings)
# ---------------------------------------------------------------------------

def _dm502_redundant_distinct() -> LintReport:
    """DISTINCT over DISTINCT: the outer operator stores every tuple to
    remove nothing."""
    plan = DupElim(DupElim(Project(_link(0), ["src_ip"])))
    return lint(plan)


#: Every case, in rule-catalogue order.  ``rule`` is the diagnostic the
#: case must produce; other rules may legitimately fire alongside it.
CORPUS: tuple[BadPlan, ...] = (
    BadPlan("tampered-annotation", "UP001",
            "root join re-annotated MONOTONIC after the fact",
            _up001_tampered_annotation),
    BadPlan("redundant-distinct", "DM502",
            "duplicate elimination over already-distinct input",
            _dm502_redundant_distinct),
)

__all__ = ["BadPlan", "CORPUS", "WINDOW"]
