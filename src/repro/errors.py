"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish schema problems from planning or execution problems.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """An attribute name or schema combination is invalid."""


class PlanError(ReproError):
    """A logical plan is malformed or violates a planning constraint.

    Examples: a join over inputs that do not share the join attribute, or an
    R-join / NRR-join placed below a negation (forbidden by Section 5.4.2 of
    the paper because those joins cannot process negative tuples).
    """


class ConfigError(PlanError):
    """An :class:`~repro.engine.strategies.ExecutionConfig` knob is invalid.

    Raised eagerly at configuration construction time (``n_partitions`` must
    be at least 1, ``lazy_interval`` must be positive when set, ``mode``
    must be a :class:`~repro.engine.strategies.Mode`; the cost model's
    :class:`~repro.core.cost.Catalog` ``premature_frequency`` must lie in
    [0, 1]) so that a bad knob fails with a clear message instead of surfacing deep inside a state-buffer
    constructor mid-compilation.  Subclasses :class:`PlanError`: a bad
    configuration is a planning-time mistake, and callers that guarded
    compilation with ``except PlanError`` keep working.
    """


class ExecutionError(ReproError):
    """The engine received inconsistent input at run time.

    Examples: out-of-order timestamps (the paper assumes non-decreasing
    arrival timestamps, Section 2), or a negative tuple that does not match
    any stored tuple.
    """


class WorkloadError(ReproError):
    """A workload or trace specification is invalid."""
