"""Structural and differential tests for the driver's compiled paths
(engine/driver.py).

The behavioural bar — byte-identical answers, output streams and counters
across regime × batch × checked × sample period — lives in the golden
matrix (tests/test_goldens.py) and the per-suite equivalence tests.  This
module pins the *structure* — one driver class, per-driver closure
compilation (no shared mutable state), a per-tuple closure that sampling
never swaps, the removed ``specialize``/``columnar`` surface — and checks
the compiled per-tuple loop against ``repro.testing.reference_step`` on
the paper queries.
"""

from __future__ import annotations

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
    from_window,
)
from repro.cli import main
from repro.engine.driver import Driver
from repro.engine.program import build_program
from repro.engine.specialize import make_driver
from repro.engine.strategies import compile_plan
from repro.errors import PlanError
from repro.testing import reference_step
from repro.workloads import queries
from repro.workloads.traffic import TrafficConfig, TrafficTraceGenerator

V = Schema(["v"])

TRACE = [
    Arrival(1, "a", (1,)),
    Arrival(2, "b", (1,)),
    Arrival(4, "a", (2,)),
    Arrival(7, "b", (2,)),
    Arrival(13, "a", (1,)),
]


def stream(name, window=10):
    return StreamDef(name, V, TimeWindow(window))


def join_plan():
    return (from_window(stream("a"))
            .where(attr_equals("v", 1))
            .join(from_window(stream("b")), on="v")
            .build())


class TestOneDriver:
    def test_every_query_runs_the_one_driver_class(self):
        query = ContinuousQuery(join_plan(), ExecutionConfig(mode=Mode.UPA))
        assert type(query.executor) is Driver

    def test_make_driver_is_the_constructor(self):
        """The two set-up stage names ``benchmarks/e2e`` times: the
        compiled query is the program, and the driver is built from it."""
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.UPA))
        assert build_program(compiled) is compiled
        assert type(make_driver(compiled, build_program(compiled))) is Driver

    @pytest.mark.parametrize("axis", ["specialize", "columnar"])
    def test_removed_axis_is_rejected_not_deprecated(self, axis, tmp_path,
                                                     capsys):
        with pytest.raises(TypeError):
            ExecutionConfig(**{axis: False})
        flag = f"--no-{axis}"
        trace = tmp_path / "trace.tsv"
        trace.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "SELECT * FROM link0 [RANGE 10]",
                  "--trace", str(trace), flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestBatchLoopChoice:
    """The no-prelude reasons the hypothesis suite in test_batched.py has
    no plan shape for."""

    def test_unbounded_stream_has_no_exp_column_to_stamp(self):
        plan = (from_window(StreamDef("a", V, None))
                .where(attr_equals("v", 1)).build())
        query = ContinuousQuery(plan, ExecutionConfig(
            mode=Mode.UPA, allow_unbounded_state=True))
        assert query.executor.batch_loop() == ("one loop; column prelude: "
                                               "none; row arrivals: a "
                                               "(unbounded stream)")
        query.run(list(TRACE), batch=4)
        assert dict(query.answer()) == {(1,): 2}


class TestClosureIsolation:
    """Closures are compiled per driver: two drivers over the same compiled
    query (or over twin compiles) must never share mutable runtime state."""

    def test_boundary_caches_are_per_driver(self):
        compiled = compile_plan(join_plan(), ExecutionConfig(mode=Mode.UPA))
        a = Driver(compiled)
        b = Driver(compiled)
        assert a._boundaries is not b._boundaries
        assert a.process_event is not b.process_event
        assert a._arrivals_pt is not b._arrivals_pt

    def test_independent_queries_stay_independent(self):
        q1 = ContinuousQuery(join_plan(), ExecutionConfig(mode=Mode.UPA))
        q2 = ContinuousQuery(join_plan(), ExecutionConfig(mode=Mode.UPA))
        q1.run(list(TRACE))
        # Driving q1 must leave q2's state, clock and counters untouched.
        assert q2.executor.now == float("-inf")
        assert q2.executor.compiled.counters.snapshot() \
            == {key: 0 for key in
                q2.executor.compiled.counters.snapshot()}
        q2.run(list(TRACE))
        assert dict(q1.answer()) == dict(q2.answer())

    def test_closures_bind_their_own_operators(self):
        q1 = ContinuousQuery(join_plan(), ExecutionConfig(mode=Mode.UPA))
        q2 = ContinuousQuery(join_plan(), ExecutionConfig(mode=Mode.UPA))
        ops1 = {id(op) for op in q1.compiled.ops.values()}
        d2 = q2.executor
        for op, _expire, stages in d2._pass_plan:
            assert id(op) not in ops1
        for plans in d2.compiled.dispatch.values():
            for plan in plans:
                assert id(plan.leaf) not in ops1


class TestFastPathLifecycle:
    @pytest.mark.parametrize("sampled", [False, True])
    def test_fast_event_loop_installed_armed_or_not(self, sampled,
                                                    monkeypatch):
        """The per-tuple loop is one instance-level closure for the
        driver's whole life: a run neither swaps nor wraps it, whether it
        samples (and times) after every event or never."""
        monkeypatch.setattr(Driver, "sample_events",
                            1 if sampled else sys.maxsize)
        query = ContinuousQuery(join_plan(), ExecutionConfig(mode=Mode.UPA))
        driver = query.executor
        installed = driver.__dict__["process_event"]
        query.run(list(TRACE))
        assert driver.process_event is installed


# ---------------------------------------------------------------------------
# Differential: compiled per-tuple loop vs the reference interpreter
# ---------------------------------------------------------------------------

_GEN = TrafficTraceGenerator(TrafficConfig(n_src_ips=12))
_EVENTS = list(_GEN.events(1500))
_WINDOW = 150.0

PAPER_QUERIES = {
    "query1": lambda: queries.query1(_GEN, _WINDOW),
    "query2": lambda: queries.query2(_GEN, _WINDOW),
    "query2_pairs": lambda: queries.query2(_GEN, _WINDOW, pairs=True),
    "query3": lambda: queries.query3(_GEN, _WINDOW),
    "query4": lambda: queries.query4(_GEN, _WINDOW),
    "query5_pullup": lambda: queries.query5_pullup(_GEN, _WINDOW),
    "query5_pushdown": lambda: queries.query5_pushdown(_GEN, _WINDOW),
}


def _drive(plan, mode, reference):
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
    stream = []
    query.subscribe(
        lambda t, now: stream.append((t.values, t.ts, t.exp, t.sign, now)))
    driver = query.executor
    for event in _EVENTS:
        if reference:
            reference_step(driver, event)
        else:
            driver.process_event(event)
    return dict(query.answer()), stream, query.counters.snapshot()


class TestCompiledLoopMatchesReference:
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_answers_stream_and_all_counters(self, name, mode):
        try:
            compiled = _drive(PAPER_QUERIES[name](), mode, reference=False)
        except PlanError:
            assert mode is Mode.DIRECT  # strict plans reject DIRECT
            return
        reference = _drive(PAPER_QUERIES[name](), mode, reference=True)
        assert compiled[0] == reference[0]
        assert compiled[1] == reference[1]
        assert compiled[1], "the trace must produce output"
        # Every counter, touches and probes included: per-tuple execution
        # runs the full expiration pass before every event on both paths.
        assert compiled[2] == reference[2]
