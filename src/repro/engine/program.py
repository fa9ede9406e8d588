"""The set-up stage ``benchmarks/e2e`` times under this module's name.

The compiled query is the program: :func:`~repro.engine.strategies.compile_plan`
resolves the dispatch tables, routes and expiration participants, and
:class:`~repro.engine.driver.Driver` is built from it directly.
"""

from __future__ import annotations


def build_program(compiled):
    """Return ``compiled``: there is nothing left to flatten."""
    return compiled
