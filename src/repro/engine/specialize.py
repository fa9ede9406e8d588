"""Driver construction under the name ``benchmarks/e2e`` times.

The engine builds :class:`~repro.engine.driver.Driver` directly from a
compiled query; compiling its tables into closures and choosing each
stream's column prelude both happen in the driver's constructor.
"""

from __future__ import annotations

from .driver import Driver


def make_driver(compiled, _program=None) -> Driver:
    """The driver that runs ``compiled`` (the second argument, what
    ``build_program`` returned, is ``compiled`` itself)."""
    return Driver(compiled)
