"""The unified driver runtime: the compiled query's tables, and uniqueness.

The PR's core invariant — there is exactly ONE propagate / expire /
dispatch implementation in the engine, shared by per-tuple, batched,
group, and sharded execution — is pinned here by source inspection and
by structural checks on the tables a :class:`~repro.engine.strategies.CompiledQuery`
hands its driver:

* ``executor.py`` holds run arguments, the one feed and finish and the
  results, and ``sharing.py`` plans producers: neither defines or calls an
  event-loop step method, and there is no timed ``_*_timed`` duplicate
  family.
* A query runs itself: ``query.executor`` is its ``Driver``, so a
  per-tuple loop bound to ``query.executor.process_event`` calls the
  compiled closure and nothing in ``query.py`` or ``executor.py``; a
  group's goes through the one feed, then straight into the closures.
* Queries, groups and shard replicas are fed and finished by the one
  feed and finish, and a per-tuple ``run`` stays inside its call budget.
* ``Driver`` defines exactly one implementation of each step its compiled
  loops call and none of the Section-2 interpreter's; operators have one
  arrival entry point (``process_batch``) and one fusion hook (``kernel``).
* The compiled query is the program: ``compile_plan`` covers every
  leaf-binding stream with a dispatch table whose fused prefix + suffix
  reconstructs the resolved route, and every driver is ``Driver(compiled)``.
* Shared producers and shard workers hold real ``Driver`` instances over
  their own compiled queries.
"""

from __future__ import annotations

import cProfile
import gc
import inspect
import pstats
import sys

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
    compile_plan,
    from_window,
)
from repro.engine import driver as driver_module
from repro.engine import executor as executor_module
from repro.engine import query as query_module
from repro.engine import sharing as sharing_module
from repro.engine.driver import Driver
from repro.engine.strategies import DispatchPlan
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
    """executor.py holds no loop; the loop lives in driver.py, once."""

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

    def test_one_per_event_loop_over_a_batch(self):
        """``driver.py`` walks a batch's events in exactly one loop, the
        one in ``process_batch``; the column/replay loop, the all-or-nothing
        loop choice and the fallback counters are gone."""
        import ast

        tree = ast.parse(inspect.getsource(driver_module))

        def binds_event(target):
            return any(isinstance(node, ast.Name) and node.id == "event"
                       for node in ast.walk(target))

        loops = [(function.name, node)
                 for function in ast.walk(tree)
                 if isinstance(function, ast.FunctionDef)
                 for node in ast.walk(function)
                 if isinstance(node, ast.For) and binds_event(node.target)]
        assert [name for name, _node in loops] == ["process_batch"]
        source = inspect.getsource(driver_module)
        for gone in ("_process_table", "_process_rows", "_row_loop_reason",
                     "batch_fallbacks", "_count_fallback", "from_events"):
            assert gone not in source, gone

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

    @pytest.mark.parametrize("sampled", [False, True])
    def test_driver_keeps_key_sharing_instance_dict(self, sampled,
                                                    monkeypatch):
        """CPython shares instance keys up to 30 attributes; a 31st makes
        every ``self.x`` load in the loops slower (2.5 % on the cheapest
        benchmark workload), whether or not the batch took a sample."""
        monkeypatch.setattr(Driver, "sample_events",
                            1 if sampled else sys.maxsize)
        driver = ContinuousQuery(
            _join_plan(), ExecutionConfig(mode=Mode.UPA)).executor
        driver.process_batch([Arrival(1.0, "s0", (1,))])
        assert bool(len(driver.compiled.metrics)) is sampled
        assert len(driver.__dict__) <= 30

    def test_regimes_share_the_driver_class(self):
        from repro.engine.shard import _SerialShards

        plan = from_window(stream("s0")).distinct().build()
        shards = _SerialShards([("q", plan, ExecutionConfig(mode=Mode.UPA))],
                               2, None, [False])
        drivers = [d for replica in shards.replicas
                   for d in replica.drivers]
        assert len(drivers) == 2
        assert all(type(d) is Driver for d in drivers)
        assert len({id(d.compiled) for d in drivers}) == 2
        assert not any(hasattr(d, "program") for d in drivers)

    def test_shared_producers_hold_drivers(self):
        from repro import QueryGroup

        group = QueryGroup()
        group.add("a", from_window(stream("s0")).distinct().build(),
                  ExecutionConfig(mode=Mode.UPA))
        group.add("b", from_window(stream("s0")).distinct().build(),
                  ExecutionConfig(mode=Mode.UPA))
        producers = group.shared_producers()
        assert producers, "identical members must fuse"
        assert all(type(p.driver) is Driver for p in producers)


def _profile(process_event, events) -> pstats.Stats:
    profiler = cProfile.Profile()
    gc.disable()  # collector callbacks (hypothesis installs one) are calls
    try:
        profiler.enable()
        for event in events:
            process_event(event)
        profiler.disable()
    finally:
        gc.enable()
    return pstats.Stats(profiler)


def _calls_by_frame(stats: pstats.Stats) -> dict:
    return {(file, name): counts[1]
            for (file, _line, name), counts in stats.stats.items()}


class TestQueryRunsItself:
    """``query.executor`` is the query's ``Driver`` — no layer between a
    query and its compiled loop."""

    N = 400

    def _events(self):
        return [Arrival(0.25 * i, f"s{i % 2}", (i % 5,))
                for i in range(self.N)]

    def test_executor_is_the_driver_and_its_closure(self):
        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        driver = query.executor
        assert type(driver) is Driver
        assert driver.compiled is query.compiled
        closure = driver.process_event
        assert closure is driver.__dict__["process_event"]
        assert inspect.isfunction(closure)
        assert closure.__code__.co_filename == driver_module.__file__
        query.run(self._events()[:40])
        query.run(self._events()[40:80], batch=8)
        assert query.executor is driver
        assert driver.process_event is closure

    @pytest.mark.parametrize("batch", [None, 8])
    def test_on_event_receives_the_driver(self, batch):
        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        seen = []
        result = query.run(self._events()[:40], batch=batch,
                           on_event=lambda runner, event: seen.append(runner))
        assert len(seen) == 40
        assert all(runner is query.executor for runner in seen)
        assert result.executor is query.executor

    def test_per_tuple_events_make_only_the_closures_calls(self):
        """N events through ``query.executor.process_event`` make exactly
        the calls the same closure makes on a bare driver: N calls of the
        closure and none into ``engine/query.py`` or ``engine/executor.py``."""
        config = ExecutionConfig(mode=Mode.UPA)
        events = self._events()
        stats = _profile(ContinuousQuery(_join_plan(), config)
                         .executor.process_event, events)
        compiled = compile_plan(_join_plan(), config)
        bare = _profile(Driver(compiled).process_event, events)
        assert stats.total_calls == bare.total_calls
        called = _calls_by_frame(stats)
        assert called[(driver_module.__file__, "process_event")] == self.N
        assert not any(file in (query_module.__file__,
                                executor_module.__file__)
                       for file, _name in called)

    def test_shared_group_members_run_their_closures_directly(self):
        from repro import QueryGroup

        group = QueryGroup()
        for name in ("a", "b"):
            group.add(name, from_window(stream("s0")).distinct()
                      .join(from_window(stream("s1")), on="v").build(),
                      ExecutionConfig(mode=Mode.UPA))
        assert group.shared_producers()
        called = _calls_by_frame(_profile(group.process_event,
                                          self._events()))
        # Two members and one producer, each its own compiled closure,
        # fed by the one feed every runtime shares.
        assert called[(driver_module.__file__, "process_event")] \
            == 3 * self.N
        assert called[(executor_module.__file__, "feed_drivers")] == self.N
        assert not any(file == query_module.__file__ for file, _name in called)


class TestOneFeedOneFinish:
    """Every runtime feeds and finishes its drivers in ``executor.py``."""

    EVENTS = [Arrival(0.25 * i, f"s{i % 2}", (i % 5,)) for i in range(40)]

    @pytest.mark.parametrize("name", ["feed_drivers", "finish_drivers"])
    def test_every_runtime_goes_through_them(self, name, monkeypatch):
        from repro import QueryGroup
        from repro.engine import multi, shard

        class Hit(Exception):
            pass

        def hit(*_args, **_kwargs):
            raise Hit(name)

        original = getattr(executor_module, name)
        for module in (executor_module, multi, shard):
            if hasattr(module, name):
                assert getattr(module, name) is original
                monkeypatch.setattr(module, name, hit)
        runs = {
            "query": lambda: ContinuousQuery(_join_plan()).run(self.EVENTS),
            "serial shards": lambda: ContinuousQuery(_join_plan()).run(
                self.EVENTS, shards=2, shard_backend="serial"),
        }
        group = QueryGroup()
        group.add("a", _join_plan())
        group.add("b", _join_plan())
        runs["group"] = lambda: group.run(self.EVENTS, batch=8)
        precompiled = QueryGroup({name: ContinuousQuery(_join_plan())
                                  for name in "ab"})
        runs["precompiled group"] = lambda: precompiled.run(self.EVENTS,
                                                            batch=8)
        for label, run in runs.items():
            with pytest.raises(Hit):
                run()
                pytest.fail(f"{label} bypassed {name}")

    def test_one_finish_and_no_driver_block_step(self):
        import pathlib

        engine = pathlib.Path(executor_module.__file__).parent
        source = "".join(path.read_text() for path in engine.glob("*.py"))
        assert source.count(".flush_metrics(") == 1
        for step in ("process_block", "maybe_sample"):
            assert not hasattr(Driver, step)

    def test_per_tuple_run_call_budget(self):
        """A per-tuple ``run`` over 8 192 events makes no more calls than
        when the query had its own block loop: beyond what the compiled
        closure and the final flush make, 119 calls (CPython 3.11)."""
        events = [Arrival(float(i), f"s{i % 2}", (i % 7,))
                  for i in range(8192)]
        config = ExecutionConfig(mode=Mode.UPA)
        run, direct = (ContinuousQuery(_join_plan(), config)
                       for _ in range(2))

        def closure_only(_):
            for event in events:
                direct.executor.process_event(event)
            direct.executor.flush_metrics(1.0)

        overhead = (_profile(lambda _: run.run(events), [None]).total_calls
                    - _profile(closure_only, [None]).total_calls)
        assert overhead <= 119


class TestProgramStructure:
    def test_dispatch_covers_every_leaf_stream(self):
        compiled = ContinuousQuery(_join_plan()).compiled
        assert set(compiled.dispatch) == set(compiled.leaf_bindings)
        for stream_name, leaves in compiled.leaf_bindings.items():
            plans = compiled.dispatch[stream_name]
            assert len(plans) == len(leaves)
            assert [plan.leaf for plan in plans] == leaves

    def test_prefix_plus_suffix_reconstructs_the_route(self):
        compiled = compile_plan(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        for plans in compiled.dispatch.values():
            for plan in plans:
                route = compiled.route_of(plan.leaf)
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
        """The compiled query is the program: the driver keeps no copy of
        its tables and no second IR object stands between them."""
        query = ContinuousQuery(_join_plan())
        driver = query.executor
        assert driver.compiled is query.compiled
        assert not hasattr(driver, "program")
        assert not hasattr(query.compiled, "program")

    def test_describe_summarizes_the_loop(self):
        compiled = ContinuousQuery(
            _join_plan(), ExecutionConfig(mode=Mode.UPA)).compiled
        assert compiled.describe() == (
            "EXPIRE>DISPATCH>PROPAGATE>PURGE>DELIVER | streams=2 fused=1"
            " expire=0 lazy=1")

    def test_arming_leaves_the_program_unchanged(self, monkeypatch):
        """Metrics are taken inside the driver's loops, not layered
        around the compiled query: a driver that times every batch
        describes its loop exactly like one that never samples, before and
        after a run."""
        monkeypatch.setattr(Driver, "sample_events", sys.maxsize)
        described = ContinuousQuery(
            _join_plan(), ExecutionConfig(mode=Mode.UPA)
        ).compiled.describe()
        monkeypatch.setattr(Driver, "sample_events", 1)
        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        assert query.compiled.describe() == described
        query.run([Arrival(float(i), f"s{i % 2}", (i % 3,))
                   for i in range(40)], batch=8)
        assert query.compiled.describe() == described

    def test_explain_carries_program_footer(self):
        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        text = query.explain()
        assert f"-- program: {query.compiled.describe()}" in text

    def test_every_driver_is_built_from_the_compiled_query(self):
        """``Driver(compiled)`` is the one way to build a driver, and the
        constructor is the one place that attaches a certificate: every
        call in ``src/`` passes the compiled query alone, and nothing calls
        ``build_program`` (a shim kept for the benchmark's stage names)."""
        import ast
        import pathlib

        package = pathlib.Path(driver_module.__file__).parents[1]
        builds, attaches = [], []
        for path in package.rglob("*.py"):
            source = path.read_text()
            assert "build_program(" not in source or path.name == "program.py"
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Name):
                    if node.func.id == "Driver":
                        builds.append((path.name, len(node.args),
                                       len(node.keywords)))
                    elif node.func.id == "attach_certificate":
                        attaches.append(path.parent.name + "/" + path.name)
        assert {name for name, _, _ in builds} >= {
            "query.py", "sharing.py", "shard.py", "specialize.py"}
        assert all(args == 1 and not kwargs for _, args, kwargs in builds)
        assert set(attaches) == {"engine/driver.py"}

    def test_a_bare_driver_attaches_its_certificate(self):
        """The certificate comes with the driver, derived once at build
        (not at the first telemetry sample); attaching again returns the
        cached object."""
        from repro.analysis.bounds import attach_certificate

        compiled = compile_plan(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        assert compiled.certificate is None
        Driver(compiled)
        certificate = compiled.certificate
        assert certificate is not None and certificate.bounded
        assert attach_certificate(compiled) is certificate

    def test_dispatch_plan_is_flat_data(self):
        plan = DispatchPlan(leaf=None, prefix=(), suffix=())
        assert plan.prefix == () and plan.suffix == ()


class TestProgramExecutionEquivalence:
    """A driver built straight from a compile drives identical results."""

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
        """A Driver over a fresh compile processes events without a
        ContinuousQuery around it — the compiled query is the program."""
        compiled = compile_plan(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        driver = Driver(compiled)
        for event in self._events(60):
            driver.process_event(event)
        reference = ContinuousQuery(_join_plan(),
                                    ExecutionConfig(mode=Mode.UPA))
        reference.run(iter(self._events(60)))
        assert driver.answer() == reference.answer()
