"""Eager ExecutionConfig validation: bad knobs fail at construction time.

Before this validation existed, an ``n_partitions=0`` config would compile
fine and only blow up (with a ZeroDivisionError deep in the partitioned
buffer) once the first STR subplan saw a tuple.  Every rejection below is
asserted to (a) raise :class:`repro.errors.ConfigError`, (b) happen at
``ExecutionConfig(...)`` call time, not at compile or run time, and (c)
carry an actionable message.
"""

from __future__ import annotations

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    QueryGroup,
    Schema,
    ShardedExecutor,
    StreamDef,
    TimeWindow,
    from_window,
    run_group_sharded,
)
from repro.errors import ConfigError, PlanError, ReproError


class TestRejections:
    def test_n_partitions_zero(self):
        with pytest.raises(ConfigError, match="n_partitions must be >= 1"):
            ExecutionConfig(n_partitions=0)

    def test_n_partitions_negative(self):
        with pytest.raises(ConfigError, match="got -3"):
            ExecutionConfig(n_partitions=-3)

    def test_lazy_interval_zero(self):
        with pytest.raises(ConfigError, match="lazy_interval must be "
                                              "positive"):
            ExecutionConfig(lazy_interval=0.0)

    def test_lazy_interval_negative(self):
        with pytest.raises(ConfigError, match="lazy_interval"):
            ExecutionConfig(lazy_interval=-1.5)

    @pytest.mark.parametrize("frequency", [-0.01, 1.01, 7.0])
    def test_premature_frequency_out_of_range(self, frequency):
        with pytest.raises(ConfigError, match=r"premature_frequency must "
                                              r"lie in \[0, 1\]"):
            ExecutionConfig(premature_frequency=frequency)

    def test_mode_must_be_a_mode(self):
        with pytest.raises(ConfigError, match="mode must be a Mode"):
            ExecutionConfig(mode="upa")  # the string, not the enum

    def test_unknown_str_storage(self):
        with pytest.raises(ConfigError, match="unknown str_storage"):
            ExecutionConfig(str_storage="sideways")


def _plan():
    return from_window(
        StreamDef("s0", Schema(["v"]), TimeWindow(10))).distinct().build()


def _group(shared=False):
    group = QueryGroup(shared=shared)
    group.add("q", _plan())
    return group


def _sharded_executor(events, batch=None, shards=2, shard_backend="process"):
    return ShardedExecutor(_plan(), shards=shards,
                           backend=shard_backend).run(events, batch)


def _run_group_sharded(shared):
    def run(events, batch=None, shards=2, shard_backend="process"):
        return run_group_sharded(_group(shared), events, shards=shards,
                                 backend=shard_backend, batch=batch)
    return run


#: Every run entry point, as ``call(events, **run_args)``.
RUN_ENTRY_POINTS = {
    "query": lambda events, **kw: ContinuousQuery(_plan()).run(events, **kw),
    "group": lambda events, **kw: _group().run(events, **kw),
    "shared_group": lambda events, **kw: _group(True).run(events, **kw),
    "sharded_executor": _sharded_executor,
    "run_group_sharded": _run_group_sharded(False),
    "run_group_sharded_shared": _run_group_sharded(True),
}


@pytest.mark.parametrize("entry", sorted(RUN_ENTRY_POINTS))
class TestRunArguments:
    """One helper validates ``batch`` / ``shards`` / ``shard_backend`` for
    every run entry point: nothing out of range is silently read as
    per-tuple or unsharded, and nothing is consumed before the error."""

    EVENTS = [Arrival(float(i), "s0", (i % 3,)) for i in range(20)]

    def _rejects(self, entry, match, **kw):
        consumed = []
        events = (consumed.append(e) or e for e in self.EVENTS)
        with pytest.raises(ConfigError, match=match):
            RUN_ENTRY_POINTS[entry](events, **kw)
        assert not consumed

    @pytest.mark.parametrize("batch", [0, -1])
    @pytest.mark.parametrize("shards", [None, 2])
    def test_batch_below_one(self, entry, batch, shards):
        kw = {} if shards is None else {"shards": shards}
        self._rejects(entry, "batch must be >= 1", batch=batch,
                      shard_backend="serial", **kw)

    @pytest.mark.parametrize("shards", [0, -2])
    def test_shards_below_one(self, entry, shards):
        self._rejects(entry, "shards must be >= 1", shards=shards)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_unknown_backend(self, entry, shards):
        self._rejects(entry, "unknown shard backend 'bogus'",
                      shards=shards, shard_backend="bogus")

    def test_boundary_values_accepted(self, entry):
        for kw in ({"batch": 1}, {"shards": 1}, {"batch": 1, "shards": 2,
                                                 "shard_backend": "serial"}):
            RUN_ENTRY_POINTS[entry](iter(self.EVENTS), **kw)


class TestAccepted:
    def test_defaults_are_valid(self):
        config = ExecutionConfig()
        assert config.n_partitions >= 1

    def test_boundary_values_accepted(self):
        ExecutionConfig(n_partitions=1)
        ExecutionConfig(premature_frequency=0.0)
        ExecutionConfig(premature_frequency=1.0)
        ExecutionConfig(lazy_interval=0.001)
        for mode in Mode:
            ExecutionConfig(mode=mode)

    def test_lazy_interval_none_means_auto(self):
        assert ExecutionConfig(lazy_interval=None).lazy_interval is None


class TestHierarchy:
    """ConfigError slots into the existing exception ladder so callers that
    caught PlanError for bad configs (the old compile-time behaviour) keep
    working."""

    def test_config_error_is_a_plan_error(self):
        assert issubclass(ConfigError, PlanError)
        assert issubclass(ConfigError, ReproError)

    def test_catchable_as_plan_error(self):
        with pytest.raises(PlanError):
            ExecutionConfig(n_partitions=0)

    def test_message_names_the_paper_context(self):
        with pytest.raises(ConfigError, match="Figure 7"):
            ExecutionConfig(n_partitions=0)
