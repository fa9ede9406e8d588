"""Checked execution (ExecutionConfig(checked=True)) tests.

Two obligations, mirroring the sanitizer's contract:

* **Transparency** — arming the monitors never changes behaviour: answers,
  output streams and every shared counter are byte-identical to an
  unchecked run, across strategies, the micro-batch path, shared groups
  and sharded execution.
* **Sensitivity** — each monitored invariant (FIFO insertion/expiration,
  exp-exact purging, negative-tuple provenance, counter conservation)
  actually raises :class:`PatternViolation` when violated, and the drain
  hook in the executor really runs the conservation check.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.sanitizer import MonitoredBuffer, Sanitizer, SanitizerState
from repro.buffers.listbuffer import ListBuffer
from repro.cli import main
from repro.core.patterns import STR, WK, WKS
from repro.core.tuples import NEGATIVE, Tuple
from repro.engine.multi import QueryGroup
from repro.engine.query import ContinuousQuery
from repro.engine.strategies import ExecutionConfig, Mode
from repro.errors import ConfigError, PatternViolation
from repro.workloads.queries import (
    query1,
    query2,
    query3,
    query4,
    query5_pullup,
    query5_pushdown,
)
from repro.workloads.traffic import TrafficConfig, TrafficTraceGenerator

WINDOW = 30.0

FACTORIES = {
    "q1": query1,
    "q2": query2,
    "q3": query3,
    "q4": query4,
    "q5_pullup": query5_pullup,
    "q5_pushdown": query5_pushdown,
}

#: Strategies each query admits (DIRECT rejects strict plans).
MODES = {
    "q1": (Mode.NT, Mode.DIRECT, Mode.UPA),
    "q2": (Mode.NT, Mode.DIRECT, Mode.UPA),
    "q3": (Mode.NT, Mode.UPA),
    "q4": (Mode.NT, Mode.DIRECT, Mode.UPA),
    "q5_pullup": (Mode.NT, Mode.UPA),
    "q5_pushdown": (Mode.NT, Mode.UPA),
}

MODE_CASES = [(name, mode) for name in sorted(FACTORIES)
              for mode in MODES[name]]


def trace(n=400, seed=11):
    gen = TrafficTraceGenerator(TrafficConfig(seed=seed))
    return list(gen.events(n))


def build(name, mode, checked, **kwargs):
    gen = TrafficTraceGenerator(TrafficConfig(seed=11))
    plan = FACTORIES[name](gen, WINDOW)
    config = ExecutionConfig(mode=mode, checked=checked, **kwargs)
    return ContinuousQuery(plan, config)


def run_pair(name, mode, events, **run_kwargs):
    """Run the query unchecked and checked; return (results, outputs)."""
    results, outputs = {}, {}
    for checked in (False, True):
        query = build(name, mode, checked)
        sink: list = []
        query.subscribe(lambda t, now, s=sink:
                        s.append((t.values, t.ts, t.exp, t.sign)))
        results[checked] = query.run(events, **run_kwargs)
        outputs[checked] = sink
    return results, outputs


def assert_transparent(results, outputs, counters=True):
    """Checked and unchecked runs must be byte-identical."""
    plain, checked = results[False], results[True]
    assert checked.answer() == plain.answer()
    assert outputs[True] == outputs[False]
    assert checked.tuples_arrived == plain.tuples_arrived
    if counters:
        assert checked.counters.snapshot() == plain.counters.snapshot()


# ---------------------------------------------------------------------------
# Transparency
# ---------------------------------------------------------------------------

class TestTransparency:
    @pytest.mark.parametrize("name,mode", MODE_CASES,
                             ids=[f"{n}-{m.value}" for n, m in MODE_CASES])
    def test_per_tuple(self, name, mode):
        results, outputs = run_pair(name, mode, trace())
        assert_transparent(results, outputs)

    @pytest.mark.parametrize("name", ["q1", "q3", "q5_pushdown"])
    def test_batched(self, name):
        results, outputs = run_pair(name, Mode.UPA, trace(), batch=64)
        assert_transparent(results, outputs)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_sharded(self, backend):
        results, outputs = run_pair("q1", Mode.UPA, trace(),
                                    shards=2, shard_backend=backend)
        plain, checked = results[False], results[True]
        assert checked.answer() == plain.answer()
        assert sorted(outputs[True]) == sorted(outputs[False])

    @pytest.mark.parametrize("shared", [False, True])
    def test_query_group(self, shared):
        events = trace()
        answers, streams = {}, {}
        for checked in (False, True):
            gen = TrafficTraceGenerator(TrafficConfig(seed=11))
            group = QueryGroup(shared=shared)
            config = ExecutionConfig(mode=Mode.UPA, checked=checked)
            group.add("a", query1(gen, WINDOW), config)
            group.add("b", query1(gen, WINDOW), config)
            group.add("c", query3(gen, WINDOW), config)
            sinks = {}
            for member in group.names():
                sink = sinks.setdefault(member, [])
                group[member].subscribe(
                    lambda t, now, s=sink:
                    s.append((t.values, t.ts, t.exp, t.sign)))
            group.run(events, batch=32)
            answers[checked] = group.answers()
            streams[checked] = sinks
        assert answers[True] == answers[False]
        assert streams[True] == streams[False]

    def test_checked_flag_is_visible(self):
        query = build("q1", Mode.UPA, True)
        assert query.compiled.sanitizer is not None
        assert query.compiled.sanitizer.buffers
        assert query.compiled.sanitizer.monitored_ops > 0
        assert build("q1", Mode.UPA, False).compiled.sanitizer is None


# ---------------------------------------------------------------------------
# Sensitivity: each monitor raises on its violation
# ---------------------------------------------------------------------------

def monitored(pattern, nt_style=False, state=None):
    state = state if state is not None else SanitizerState()
    return MonitoredBuffer(ListBuffer(), pattern, "test-buffer",
                           nt_style, state), state


def tup(v, ts=0.0, exp=100.0, sign=1):
    return Tuple((v,), ts, exp, sign)


class TestMonitors:
    def test_negative_tuple_never_stored(self):
        buffer, _ = monitored(STR, nt_style=True)
        with pytest.raises(PatternViolation, match="never stored"):
            buffer.insert(tup("a", sign=NEGATIVE))

    def test_wks_insertions_must_be_fifo(self):
        buffer, _ = monitored(WKS)
        buffer.insert(tup("a", exp=10.0))
        with pytest.raises(PatternViolation, match="non-FIFO"):
            buffer.insert(tup("b", exp=5.0))

    def test_direct_style_forbids_deletions_on_wk(self):
        buffer, _ = monitored(WK, nt_style=False)
        t = tup("a")
        buffer.insert(t)
        with pytest.raises(PatternViolation, match="premature deletion"):
            buffer.delete(t)

    def test_nt_style_forbids_early_deletion_on_wk(self):
        buffer, state = monitored(WK, nt_style=True)
        t = tup("a", exp=100.0)
        buffer.insert(t)
        state.now = 1.0
        with pytest.raises(PatternViolation, match="before its expiry"):
            buffer.delete(t)

    def test_str_edges_may_delete_prematurely(self):
        buffer, state = monitored(STR, nt_style=True)
        t = tup("a", exp=100.0)
        buffer.insert(t)
        state.now = 1.0
        assert buffer.delete(t)

    def test_purge_must_be_exp_exact(self):
        class LeakyBuffer(ListBuffer):
            """Purges one tuple too many (a live one)."""
            def purge_expired(self, now):
                purged = list(self._items)
                self._items.clear()
                return purged

        inner = LeakyBuffer()
        buffer = MonitoredBuffer(inner, WK, "leaky", False, SanitizerState())
        buffer.insert(tup("a", exp=math.inf))
        with pytest.raises(PatternViolation, match="live"):
            buffer.purge_expired(1.0)

    def test_counter_conservation(self):
        buffer, _ = monitored(WKS)
        buffer.insert(tup("a"))
        buffer.insert(tup("b"))
        buffer.inner.delete(tup("a"))  # behind the monitor's back
        with pytest.raises(PatternViolation, match="conservation"):
            buffer.verify_drain()

    def test_emission_provenance(self):
        class FakeOp:
            def process_batch(self, input_index, tuples, now):
                return [tup("x", sign=NEGATIVE)]
            def expire(self, now):
                return []

        strict = FakeOp()
        Sanitizer().wrap_operator(strict, "strict-op", negatives_allowed=True)
        assert strict.process_batch(0, [tup("a")], 0.0)  # legal under STR/NT

        illegal = FakeOp()
        Sanitizer().wrap_operator(illegal, "mono-op", negatives_allowed=False)
        with pytest.raises(PatternViolation, match="negative tuple"):
            illegal.process_batch(0, [tup("a")], 0.0)

    def test_executor_drain_hook_runs_conservation(self):
        """Tampering a monitor's ledger must surface at end of run — the
        executor really calls verify_drain on the compiled sanitizer."""
        query = build("q1", Mode.UPA, True)
        query.compiled.sanitizer.buffers[0].inserted += 1
        with pytest.raises(PatternViolation, match="conservation"):
            query.run(trace(100))


# ---------------------------------------------------------------------------
# Certificates: every driver is validated at drain
# ---------------------------------------------------------------------------

def tamper(compiled) -> int:
    """Re-arm every armed certificate monitor with a 0.5 horizon, so any
    stored tuple that lives longer is a violation at drain; returns how
    many monitors were re-armed."""
    monitors = [entry.monitor for entry in compiled.certificate.entries
                if entry.monitor is not None and entry.monitor.cert_armed]
    for monitor in monitors:
        monitor.arm_certificate(0.5)
    return len(monitors)


def checked_group(shared):
    gen = TrafficTraceGenerator(TrafficConfig(seed=11))
    group = QueryGroup(shared=shared)
    config = ExecutionConfig(mode=Mode.UPA, checked=True)
    group.add("a", query1(gen, WINDOW), config)
    group.add("b", query1(gen, WINDOW), config)
    group.add("c", query3(gen, WINDOW), config)
    return group


class TestCertificateAtDrain:
    def test_tampered_query_raises(self):
        query = build("q3", Mode.UPA, True)
        assert tamper(query.compiled)
        with pytest.raises(PatternViolation, match="certified horizon"):
            query.run(trace(), batch=64)

    @pytest.mark.parametrize("batch", [None, 64])
    @pytest.mark.parametrize("shared", [False, True])
    def test_tampered_member_raises_from_group_run(self, shared, batch):
        group = checked_group(shared)
        assert tamper(group["c"].compiled)
        with pytest.raises(PatternViolation, match="certified horizon"):
            group.run(trace(), batch=batch)

    def test_a_bare_driver_arms_its_certificate(self):
        """The certificate comes with the driver, not with whoever builds
        it: a driver built straight from a compile is validated at its
        finish exactly as a query's is."""
        from repro.engine.driver import Driver
        from repro.engine.executor import finish_drivers
        from repro.engine.strategies import compile_plan

        gen = TrafficTraceGenerator(TrafficConfig(seed=11))
        compiled = compile_plan(query3(gen, WINDOW), ExecutionConfig(
            mode=Mode.UPA, checked=True))
        assert compiled.certificate is None
        driver = Driver(compiled)
        assert compiled.certificate is not None
        assert tamper(compiled)
        driver.process_batch(trace())
        with pytest.raises(PatternViolation, match="certified horizon"):
            finish_drivers([driver])

    def test_tampered_producer_raises_from_group_run(self):
        group = checked_group(shared=True)
        producers = group.shared_producers()
        assert producers
        assert all(p.compiled.certificate is not None for p in producers)
        assert sum(tamper(p.compiled) for p in producers)
        with pytest.raises(PatternViolation, match="certified horizon"):
            group.run(trace(), batch=64)

    @pytest.mark.parametrize("batch", [None, 64])
    def test_serial_shards_validate_every_replica(self, batch, monkeypatch):
        from repro.engine import executor

        validated = []
        validate = executor.validate_certificate

        def counting(compiled):
            validated.append(compiled)
            return validate(compiled)

        monkeypatch.setattr(executor, "validate_certificate", counting)
        result = build("q1", Mode.UPA, True).run(
            trace(), batch=batch, shards=2, shard_backend="serial")
        assert result.shards == 2
        assert len(validated) == len({id(c) for c in validated}) == 2
        assert all(c.certificate is not None for c in validated)

    def test_clean_paper_queries_validate_everywhere(self):
        """No false positives: every runtime validates Queries 1-4 clean."""
        events = trace()
        for name in ("q1", "q2", "q3", "q4"):
            for mode in MODES[name]:
                build(name, mode, True).run(events, batch=64)
                build(name, mode, True).run(events, shards=2,
                                            shard_backend="serial")
        for shared in (False, True):
            for batch in (None, 64):
                checked_group(shared).run(events, batch=batch)


# ---------------------------------------------------------------------------
# Config validation and CLI surface
# ---------------------------------------------------------------------------

class TestConfigAndCli:
    def test_checked_must_be_bool(self):
        with pytest.raises(ConfigError, match="checked"):
            ExecutionConfig(checked="yes")

    def test_checked_rejects_unbounded_state(self):
        with pytest.raises(ConfigError, match="allow_unbounded_state"):
            ExecutionConfig(checked=True, allow_unbounded_state=True)

    def test_cli_run_checked(self, tmp_path, capsys):
        path = tmp_path / "trace.tsv"
        assert main(["generate", "--tuples", "200", "--links", "2",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        code = main([
            "run", "SELECT DISTINCT src_ip FROM link0 [RANGE 50]",
            "--trace", str(path), "--links", "2", "--checked",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "processed 200 events" in out
