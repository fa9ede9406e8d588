"""Eager ExecutionConfig validation: bad knobs fail at construction time.

Before this validation existed, an ``n_partitions=0`` config would compile
fine and only blow up (with a ZeroDivisionError deep in the partitioned
buffer) once the first STR subplan saw a tuple.  Every rejection below is
asserted to (a) raise :class:`repro.errors.ConfigError`, (b) happen at
``ExecutionConfig(...)`` (or the cost model's ``Catalog(...)``) call time,
not at compile or run time, and (c) carry an actionable message.
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
    StreamDef,
    TimeWindow,
    from_window,
)
from repro.core.cost import Catalog
from repro.errors import ConfigError, PlanError, ReproError


class TestRejections:
    def test_n_partitions_zero(self):
        with pytest.raises(ConfigError, match="n_partitions must be >= 1"):
            ExecutionConfig(n_partitions=0)

    def test_n_partitions_negative(self):
        """A fraction or a string fails here too, not later as a bare
        TypeError inside the partitioned buffer."""
        for value in (-3, 2.5, "3"):
            with pytest.raises(ConfigError, match=f"got {value!r}"):
                ExecutionConfig(n_partitions=value)

    def test_lazy_interval_zero(self):
        with pytest.raises(ConfigError, match="lazy_interval must be "
                                              "positive"):
            ExecutionConfig(lazy_interval=0.0)

    def test_lazy_interval_negative(self):
        """nan and inf compare False against 0; either would leave lazily
        maintained state unpurged for the whole run."""
        for value in (-1.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="lazy_interval"):
                ExecutionConfig(lazy_interval=value)

    @pytest.mark.parametrize("frequency", [-0.01, 1.01, 7.0])
    def test_premature_frequency_out_of_range(self, frequency):
        """The rate left ExecutionConfig with the hybrid STR storage; the
        cost model's Catalog still prices premature deletions with it."""
        with pytest.raises(ConfigError, match=r"premature_frequency must "
                                              r"lie in \[0, 1\]"):
            Catalog(premature_frequency=frequency)

    def test_mode_must_be_a_mode(self):
        with pytest.raises(ConfigError, match="mode must be a Mode"):
            ExecutionConfig(mode="upa")  # the string, not the enum

    def test_no_execution_axis_field(self):
        """``checked`` is gone: the config has four strategy knobs and no
        boolean that arms another way of running."""
        import dataclasses

        with pytest.raises(TypeError, match="checked"):
            ExecutionConfig(checked=True)
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
            "mode", "n_partitions", "lazy_interval", "allow_unbounded_state"]

    @pytest.mark.parametrize("field,value", [
        ("str_storage", "negative"), ("str_storage", "partitioned"),
        ("premature_frequency", 0.8)])
    def test_no_str_storage_knob(self, field, value):
        """UPA stores STR results one way (partitioned by ``exp``), so
        neither the storage choice nor the rate that drove it is a field."""
        with pytest.raises(TypeError, match=field):
            ExecutionConfig(mode=Mode.UPA, **{field: value})


def _plan():
    return from_window(
        StreamDef("s0", Schema(["v"]), TimeWindow(10))).distinct().build()


def _group(precompiled=False):
    """Two members over one δ: registered, they share it; precompiled,
    the group shares nothing."""
    if precompiled:
        return QueryGroup({name: ContinuousQuery(_plan()) for name in "ab"})
    group = QueryGroup()
    for name in "ab":
        group.add(name, _plan())
    return group


def _sharded(make):
    """``make().run`` sharded unless the row says otherwise."""
    def run(events, batch=None, shards=2, shard_backend="process"):
        return make().run(events, batch=batch, shards=shards,
                          shard_backend=shard_backend)
    return run


#: Every run entry point, as ``call(events, **run_args)``: a query, a
#: group of precompiled members and a group sharing a producer, each as
#: called and sharded by default (the ``sharded_executor`` and
#: ``run_group_sharded*`` rows).
RUN_ENTRY_POINTS = {
    "query": lambda events, **kw: ContinuousQuery(_plan()).run(events, **kw),
    "group": lambda events, **kw: _group(True).run(events, **kw),
    "shared_group": lambda events, **kw: _group().run(events, **kw),
    "sharded_executor": _sharded(lambda: ContinuousQuery(_plan())),
    "run_group_sharded": _sharded(lambda: _group(True)),
    "run_group_sharded_shared": _sharded(_group),
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
        ExecutionConfig(lazy_interval=0.001)
        Catalog(premature_frequency=0.0)
        Catalog(premature_frequency=1.0)
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
