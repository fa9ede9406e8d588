"""Failure-path tests: the library must fail loudly and precisely."""

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionError,
    Mode,
    ExecutionConfig,
    PlanError,
    RelationUpdate,
    ReproError,
    Schema,
    SchemaError,
    StreamDef,
    TimeWindow,
    WorkloadError,
    from_window,
)

V = Schema(["v"])


def stream(name="s0"):
    return StreamDef(name, V, TimeWindow(10))


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [SchemaError, PlanError, ExecutionError,
                                     WorkloadError])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_catching_base_class_works(self):
        with pytest.raises(ReproError):
            Schema([])


class TestEngineFailures:
    def test_out_of_order_identifies_timestamps(self):
        query = ContinuousQuery(from_window(stream()).build())
        query.executor.process_event(Arrival(10, "s0", (1,)))
        with pytest.raises(ExecutionError) as err:
            query.executor.process_event(Arrival(4, "s0", (2,)))
        assert "4" in str(err.value) and "10" in str(err.value)

    def test_relation_delete_of_absent_row(self):
        from repro import Relation
        rel = Relation("r", Schema(["k", "m"]))
        plan = (from_window(stream())
                .join_relation(rel, on="v", rel_on="k").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        with pytest.raises(WorkloadError, match="not present"):
            query.executor.process_event(
                RelationUpdate(1, "r", "delete", ("x", "y")))

    def test_failure_leaves_prior_state_intact(self):
        """An error on one event must not corrupt results already built."""
        query = ContinuousQuery(from_window(stream()).build())
        query.executor.process_event(Arrival(10, "s0", (1,)))
        with pytest.raises(ExecutionError):
            query.executor.process_event(Arrival(4, "s0", (2,)))
        assert sum(query.answer().values()) == 1
        # The engine continues to accept in-order events afterwards.
        query.executor.process_event(Arrival(11, "s0", (3,)))
        assert sum(query.answer().values()) == 2


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="process shard backend needs fork")
class TestShardWorkerFailures:
    """Shard-worker failure paths: die loudly, promptly, and reaped.

    Regression tests for two silent-failure bugs: (a) a worker killed
    mid-protocol used to surface as an unhandled EOFError (or worse, a
    truncated merge), and (b) ``finish()`` joined workers with a timeout
    but never checked ``is_alive()``, so a hung worker leaked a zombie
    while the run reported success.
    """

    def _plan(self):
        return (from_window(stream("s0"))
                .join(from_window(stream("s1")), on="v").build())

    def _events(self, n=700):
        events = []
        for i in range(n):
            events.append(Arrival(0.1 * i, f"s{i % 2}", (i % 32,)))
        return events

    def _members(self, n_members, mode):
        return [(f"q{i}", self._plan(), ExecutionConfig(mode=mode))
                for i in range(n_members)]

    def _run(self, n_members, events):
        """A process-backend run of an ``n_members`` replica: the
        single-query entry point for one member, a group otherwise."""
        from repro import QueryGroup
        from repro.engine.shard import ShardedExecutor

        if n_members == 1:
            return ShardedExecutor(
                self._plan(), ExecutionConfig(mode=Mode.NT),
                shards=2, backend="process").run(events)
        group = QueryGroup()
        for name, plan, config in self._members(n_members, Mode.NT):
            group.add(name, plan, config)
        return group.run(events, shards=2, shard_backend="process")

    def _kill_mid_run(self, n_members):
        import os
        import signal
        import time

        victims = []

        def killing_events():
            import multiprocessing

            for index, event in enumerate(self._events()):
                if index == 400:  # mid-run: after the first 256-event chunk
                    children = multiprocessing.active_children()
                    assert children, "workers should be alive mid-run"
                    victims.extend(children)
                    os.kill(children[0].pid, signal.SIGKILL)
                yield event

        start = time.monotonic()
        with pytest.raises(ExecutionError, match="shard worker died"):
            self._run(n_members, killing_events())
        elapsed = time.monotonic() - start
        assert elapsed < 15, f"parent hung {elapsed:.1f}s on a dead worker"
        assert len(victims) == 2
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in victims):
            assert time.monotonic() < deadline, "zombie shard worker leaked"
            time.sleep(0.05)
        assert all(p.exitcode is not None for p in victims)

    def test_killed_worker_raises_promptly_and_leaves_no_zombie(self):
        """SIGKILL one worker mid-run: the parent must raise within the
        chunk that hits the dead pipe — not hang for the 30 s join grace —
        and every other worker must be terminated and reaped."""
        self._kill_mid_run(1)

    def test_killed_group_worker_raises_promptly_and_leaves_no_zombie(self):
        """The same death in a 3-member group: groups ride the one worker
        pool, so its abort path names the dead worker and reaps the rest."""
        self._kill_mid_run(3)

    def test_worker_exception_reported_not_swallowed(self):
        """An exception raised *inside* a worker (here: a predicate blowing
        up mid-chunk) must cross the pipe as an ``("err", ...)`` reply and
        surface in the parent as ``ExecutionError("shard worker failed:
        ...")`` carrying the original type and message — never as an opaque
        EOFError, and never as a silent partial merge."""
        from repro.core.plan import PredicateBuilder
        from repro.engine.shard import ShardedExecutor

        def make(schema):
            def bomb(values):
                if values[0] == 7:
                    raise ValueError("injected predicate failure at v=7")
                return True
            return bomb

        predicate = PredicateBuilder(attrs=("v",), make=make, label="bomb")
        plan = from_window(stream("s0")).where(predicate).build()
        executor = ShardedExecutor(plan, ExecutionConfig(mode=Mode.NT),
                                   shards=2, backend="process")
        events = [Arrival(0.1 * i, "s0", (i % 32,)) for i in range(600)]
        with pytest.raises(ExecutionError, match=(
                r"shard worker failed: "
                r"ValueError: injected predicate failure at v=7")):
            executor.run(iter(events))
        # The pool was aborted: no worker outlives the failed run.
        import multiprocessing
        assert not any(p.is_alive()
                       for p in multiprocessing.active_children())

    def test_backend_receive_aborts_whole_pool(self):
        """A dead worker poisons the pool: the first failed receive
        terminates and reaps every sibling before raising."""
        import time

        from repro.engine.shard import _ProcessShards, ShardRouter
        from repro.core.sharding import analyze_partitionability

        plan = self._plan()
        part = analyze_partitionability(plan)
        backend = _ProcessShards([("q", plan, ExecutionConfig(mode=Mode.NT))],
                                 3, None, [False])
        try:
            backend._processes[1].kill()
            backend._processes[1].join(timeout=10)
            router = ShardRouter(part.keys, 3)
            with pytest.raises(ExecutionError, match="died"):
                backend.feed(router.route_chunk(self._events(64)))
            deadline = time.monotonic() + 10
            while any(p.is_alive() for p in backend._processes):
                assert time.monotonic() < deadline, "pool abort leaked workers"
                time.sleep(0.05)
        finally:
            backend._abort()

    def _kill_on_shm_transport(self, n_members):
        import time

        from multiprocessing import shared_memory

        from repro.engine.shard import (
            _ProcessShards,
            ShardRouter,
            analyze_group_partitionability,
        )

        members = self._members(n_members, Mode.UPA)
        part = analyze_group_partitionability(members)
        backend = _ProcessShards(members, 2, 64, [False] * n_members)
        try:
            arena = backend._arena
            assert arena is not None, "columnar run should build an arena"
            names = [arena.segment.name]
            router = ShardRouter(part.keys, 2)
            # One healthy chunk over the cshard shm path first.
            outputs = backend.feed_chunk(self._events(64), router)
            assert [len(per_member) for per_member in outputs] \
                == [n_members] * 2
            backend._processes[0].kill()
            backend._processes[0].join(timeout=10)
            with pytest.raises(ExecutionError, match="died"):
                backend.feed_chunk(self._events(64), router)
        finally:
            backend._abort()
        assert backend._arena._closed
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in backend._processes):
            assert time.monotonic() < deadline, "pool abort leaked workers"
            time.sleep(0.05)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_killed_worker_does_not_leak_shared_memory(self):
        """SIGKILL a worker mid-run on the columnar shm transport: the
        pool abort must close *and unlink* the arena segment — a leaked
        ``/dev/shm`` file outlives the process and eats kernel memory."""
        self._kill_on_shm_transport(1)

    def test_killed_group_worker_does_not_leak_shared_memory(self):
        """The same with three members per replica: one arena, one abort
        path, whatever the replica holds."""
        self._kill_on_shm_transport(3)

    def test_hung_worker_is_detected_terminated_and_reported(self):
        """A worker that never exits after finishing must be terminated,
        reaped and reported — not silently leaked as a zombie."""
        import multiprocessing
        import time

        from repro.engine.shard import _WorkerPool

        context = multiprocessing.get_context("fork")
        pool = _WorkerPool()
        pool.join_grace = 0.2  # don't wait the production 30 s in a test
        pool._spawn(context, time.sleep, lambda _conn, _i: (60,), 1)
        try:
            with pytest.raises(ExecutionError, match="failed to exit"):
                pool._join_all()
            assert all(not p.is_alive() for p in pool._processes)
            assert all(p.exitcode is not None for p in pool._processes)
        finally:
            pool._abort()


class TestPlannerFailures:
    def test_direct_with_negation_message_names_the_cure(self):
        plan = (from_window(stream("a"))
                .minus(from_window(stream("b")), on="v").build())
        with pytest.raises(PlanError, match="negation-free"):
            ContinuousQuery(plan, ExecutionConfig(mode=Mode.DIRECT))

    def test_arity_mismatch_in_events_is_caught_by_relation(self):
        from repro import Relation, WorkloadError
        rel = Relation("r", Schema(["k", "m"]))
        with pytest.raises(WorkloadError, match="arity"):
            rel.insert(("only-one",))
