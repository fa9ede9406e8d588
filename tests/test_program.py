"""The unified execution-program runtime: IR structure and uniqueness.

The PR's core invariant — there is exactly ONE propagate / expire /
dispatch implementation in the engine, shared by per-tuple, batched,
shared, and sharded execution — is pinned here by source inspection and
by structural checks on :class:`~repro.engine.program.ExecutionProgram`:

* ``executor.py`` is a façade and ``sharing.py`` an orchestrator: neither
  defines or calls an event-loop step method, and there is no timed
  ``_*_timed`` duplicate family (the pre-refactor executor carried both).
* ``Driver`` defines exactly one implementation of each step its compiled
  loops call and none of the Section-2 interpreter's; operators have one
  arrival entry point (``process_batch``) and one fusion hook (``kernel``).
* ``build_program`` covers every leaf-binding stream with a dispatch
  table whose fused prefix + suffix reconstructs the resolved route.
* Shared producers and shard workers hold real ``Driver`` instances over
  the same program IR.
"""

from __future__ import annotations

import inspect

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    Schema,
    StreamDef,
    TimeWindow,
    attr_equals,
    from_window,
)
from repro.engine import driver as driver_module
from repro.engine import executor as executor_module
from repro.engine import sharing as sharing_module
from repro.engine.driver import Driver
from repro.engine.program import (
    STEP_KINDS,
    DispatchPlan,
    ExecutionProgram,
    build_program,
)
from repro.operators.base import PhysicalOperator

from conftest import all_subclasses

V = Schema(["v"])


def stream(name="s0", window=10):
    return StreamDef(name, V, TimeWindow(window))


def _join_plan():
    return (from_window(stream("s0"))
            .where(attr_equals("v", 1))
            .join(from_window(stream("s1")), on="v")
            .build())


class TestSingleImplementation:
    """executor.py is a façade; the loop lives in driver.py, once."""

    def test_executor_module_has_no_event_loop(self):
        source = inspect.getsource(executor_module)
        for step in ("_propagate", "_expiration_pass", "_dispatch_arrival",
                     "_maybe_lazy_purge", "_dispatch_relation_update"):
            assert f"def {step}" not in source, (
                f"executor.py must not define {step}; the single "
                f"implementation lives on Driver")

    def test_no_timed_duplicate_family_anywhere(self):
        """The old ``_*_timed`` bound-method shadow family is gone: timing
        lives inside the compiled loops, not in duplicated driver methods."""
        for module in (executor_module, driver_module):
            source = inspect.getsource(module)
            for name in ("_propagate_timed", "_expiration_pass_timed",
                         "_dispatch_arrival_timed", "_expiration_pass_cycled",
                         "_telemetry_set"):
                assert f"def {name}" not in source

    def test_driver_defines_each_step_exactly_once(self):
        """The steps the compiled loops call are defined once; the Section-2
        interpreter's are not on the shipped class at all (it lives in
        ``repro.testing.reference_step``), so ``process_event`` is one
        thing: the instance's compiled closure."""
        source = inspect.getsource(Driver)
        for step in ("_clock_for", "_dispatch_relation_update",
                     "_maybe_lazy_purge"):
            assert source.count(f"def {step}(") == 1
        for step in ("process_event", "_expiration_pass",
                     "_dispatch_arrival", "_propagate", "_deliver"):
            assert step not in Driver.__dict__
        # ... and sharing.py, like executor.py, neither defines nor calls
        # a step: producers and members run compiled drivers.
        sharing = inspect.getsource(sharing_module)
        for step in ("_propagate", "_expiration_pass", "_dispatch_arrival",
                     "_maybe_lazy_purge", "_dispatch_relation_update"):
            assert step not in sharing

    def test_operators_have_one_arrival_entry_point(self):
        """``process_batch`` is the arrival entry point and ``kernel`` the
        fusion hook; ``process`` is the base class's list-of-one
        convenience, overridden nowhere."""
        found = all_subclasses(PhysicalOperator)
        assert len(found) >= 13
        for cls in found:
            assert "process" not in cls.__dict__, cls
            assert not hasattr(cls, "column_kernel"), cls
            assert not hasattr(cls, "scalar_kernel"), cls

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_driver_keeps_key_sharing_instance_dict(self, telemetry):
        """CPython shares instance keys up to 30 attributes; a 31st makes
        every ``self.x`` load in the loops slower (2.5 % on the cheapest
        benchmark workload), for armed and unarmed drivers alike."""
        driver = ContinuousQuery(
            _join_plan(), ExecutionConfig(mode=Mode.UPA, telemetry=telemetry)
        ).executor.driver
        driver.process_batch([Arrival(1.0, "s0", (1,))])
        assert len(driver.__dict__) <= 30

    def test_regimes_share_the_driver_class(self):
        from repro.engine.shard import _SerialShards

        plan = from_window(stream("s0")).distinct().build()
        shards = _SerialShards([("q", plan, ExecutionConfig(mode=Mode.UPA))],
                               2, None, [False])
        drivers = [d for replica in shards.replicas
                   for _name, d in replica.drivers]
        assert len(drivers) == 2
        assert all(type(d) is Driver for d in drivers)
        assert all(isinstance(d.program, ExecutionProgram) for d in drivers)

    def test_shared_producers_hold_drivers(self):
        from repro import QueryGroup

        group = QueryGroup(shared=True)
        group.add("a", from_window(stream("s0")).distinct().build(),
                  ExecutionConfig(mode=Mode.UPA))
        group.add("b", from_window(stream("s0")).distinct().build(),
                  ExecutionConfig(mode=Mode.UPA))
        producers = group.shared_producers()
        assert producers, "identical members must fuse"
        assert all(type(p.driver) is Driver for p in producers)


class TestProgramStructure:
    def test_steps_follow_the_vocabulary_in_order(self):
        program = ContinuousQuery(_join_plan()).executor.program
        assert tuple(step.kind for step in program.steps) == STEP_KINDS

    def test_dispatch_covers_every_leaf_stream(self):
        query = ContinuousQuery(_join_plan())
        program = query.executor.program
        assert set(program.dispatch) == set(query.compiled.leaf_bindings)
        for stream_name, leaves in query.compiled.leaf_bindings.items():
            plans = program.dispatch[stream_name]
            assert len(plans) == len(leaves)
            assert [plan.leaf for plan in plans] == leaves

    def test_prefix_plus_suffix_reconstructs_the_route(self):
        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        program = query.executor.program
        for plans in program.dispatch.values():
            for plan in plans:
                route = query.compiled.route_of(plan.leaf)
                assert len(plan.prefix) + len(plan.suffix) == len(route)
                # Fused prefix entries mirror the route's leading parents.
                for (op, kind, _arg), (parent, _slot) in zip(
                        plan.prefix, route):
                    assert op is parent
                    assert kind in ("filter", "map_indices", "pass")
                    assert parent.kernel() is not None
                # Everything fused must be stateless.
                for op, _kind, _arg in plan.prefix:
                    assert op.state_size() == 0

    def test_program_recorded_on_compiled(self):
        query = ContinuousQuery(_join_plan())
        assert query.compiled.program is query.executor.program

    def test_describe_summarizes_the_loop(self):
        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        text = query.executor.program.describe()
        assert text.startswith("EXPIRE>DISPATCH>PROPAGATE>PURGE>DELIVER")
        assert "streams=2" in text
        assert "layers=none" in text
        assert repr(query.executor.program).startswith("ExecutionProgram(")

    def test_checked_layer_recorded(self):
        query = ContinuousQuery(
            _join_plan(), ExecutionConfig(mode=Mode.UPA, checked=True))
        assert "checked" in query.executor.program.layers
        assert "layers=checked" in query.executor.program.describe()

    def test_arming_leaves_the_program_unchanged(self):
        """Telemetry is timed inside the driver's loops, not layered
        around the program: the armed program describes itself exactly
        like the unarmed one, before and after a run."""
        described = ContinuousQuery(
            _join_plan(), ExecutionConfig(mode=Mode.UPA)
        ).executor.program.describe()
        query = ContinuousQuery(
            _join_plan(), ExecutionConfig(mode=Mode.UPA, telemetry=True))
        assert query.executor.program.describe() == described
        query.run([Arrival(float(i), f"s{i % 2}", (i % 3,))
                   for i in range(40)], batch=8)
        assert query.executor.program.describe() == described

    def test_explain_carries_program_footer(self):
        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        text = query.explain()
        assert "-- program: EXPIRE>DISPATCH>PROPAGATE>PURGE>DELIVER" in text

    def test_dispatch_plan_is_flat_data(self):
        plan = DispatchPlan(leaf=None, prefix=(), suffix=())
        assert plan.prefix == () and plan.suffix == ()


class TestProgramExecutionEquivalence:
    """A rebuilt program over the same compile drives identical results."""

    def _events(self, n=200):
        return [Arrival(0.25 * i, f"s{i % 2}", (i % 5,)) for i in range(n)]

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA])
    def test_fused_prefix_matches_unfused_route(self, mode):
        """Filter-below-join: the fused scalar prefix must charge the same
        answers as per-tuple generic propagation."""
        reference = ContinuousQuery(_join_plan(), ExecutionConfig(mode=mode))
        reference.run(iter(self._events()))
        batched = ContinuousQuery(_join_plan(), ExecutionConfig(mode=mode))
        batched.run(iter(self._events()), batch=64)
        assert reference.answer() == batched.answer()

    def test_driver_runs_program_standalone(self):
        """A Driver over a fresh program processes events without the
        Executor façade — the program IR is self-sufficient."""
        from repro.engine.strategies import compile_plan

        compiled = compile_plan(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        driver = Driver(compiled, build_program(compiled))
        for event in self._events(60):
            driver.process_event(event)
        reference = ContinuousQuery(_join_plan(),
                                    ExecutionConfig(mode=Mode.UPA))
        reference.run(iter(self._events(60)))
        assert driver.answer() == reference.answer()
