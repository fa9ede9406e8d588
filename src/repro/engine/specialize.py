"""Driver construction under its published name.

The engine builds :class:`~repro.engine.driver.Driver` directly; callers
outside it (``benchmarks/e2e`` times this call as its own set-up stage)
import :func:`make_driver` from here.  Compiling the program into closures
and choosing the micro-batch loop both happen in the driver's constructor.
"""

from __future__ import annotations

from .driver import Driver
from .program import ExecutionProgram


def make_driver(compiled, program: ExecutionProgram) -> Driver:
    """Compile ``program`` into the driver that runs ``compiled``."""
    return Driver(compiled, program)
