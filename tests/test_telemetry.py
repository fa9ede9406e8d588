"""Telemetry layer: registry semantics, equivalence, and decomposition.

Telemetry is always on: a driver samples state every
``Driver.sample_events`` events and reads clocks on one batch per sample
period — the batch after each sample, called the *armed* batch below.
Tests choose the period by setting ``Driver.sample_events``: 1 (every
batch armed, a sample after every batch or event), the default, or one
longer than any trace (only the first batch armed, no sample before the
closing flush).  Four guarantees are checked here:

* **Registry semantics** — labeled instrument identity, deterministic
  snapshots, label-wise merge (counters/histograms add, gauges sum), JSON
  export and the hand-rolled schema validator.
* **Equivalence** — answers, output streams, the chosen batch loop and
  every counter are byte-identical across sample periods, across
  per-tuple, batched, shared-group and sharded execution under every
  strategy (telemetry is observation only).
* **Cost** — building a query registers nothing, an unarmed batch makes no
  extra call, and one sample period costs a bounded number of calls.
* **Decomposition** — after a sharded run, every unlabeled metric series
  equals the sum of its ``shard=i`` series exactly, mirroring the counter
  decomposition guarantee.

Also here: the ``NULL_COUNTERS`` aliasing regression (the shared fallback
sink used to be a *mutable* ``Counters``, so unrelated buffers accumulated
into one bag).
"""

import json
import math
import sys

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    MetricsRegistry,
    Mode,
    Predicate,
    QueryGroup,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    count,
    from_window,
    metrics_document,
    validate_metrics_document,
    write_metrics_json,
)
from repro.core.metrics import NULL_COUNTERS, Counters, NullCounters
from repro.core.tuples import Tuple
from repro.engine.driver import Driver

V = Schema(["v"])


def _sources(window=8):
    s0 = StreamDef("s0", V, TimeWindow(window))
    s1 = StreamDef("s1", V, TimeWindow(window))
    return from_window(s0), from_window(s1)


def _join_plan():
    b0, b1 = _sources()
    return b0.join(b1, on="v").build()


def _minus_plan():
    b0, b1 = _sources()
    return b0.minus(b1, on="v").build()


SMALL = Predicate(("v",), lambda vals: vals[0] <= 5, "v <= 5")


def _groupby_plan():
    b0, _ = _sources()
    return b0.group_by(["v"], [count()]).build()


def _trace(n=300, vmax=8, seed=11):
    import random

    rng = random.Random(seed)
    events, ts = [], 0.0
    for _ in range(n):
        ts += rng.choice([0.25, 0.5, 1.0, 2.0])
        if rng.random() < 0.08:
            events.append(Tick(ts))
        else:
            events.append(
                Arrival(ts, f"s{rng.randrange(2)}", (rng.randrange(vmax),)))
    events.append(Tick(ts + 40.0))
    return events


EVENTS = _trace()


# -- registry semantics --------------------------------------------------------


class TestRegistry:
    def test_instrument_identity_is_name_plus_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("events", op="1:X")
        assert registry.counter("events", op="1:X") is a
        b = registry.counter("events", op="2:Y")
        assert b is not a
        a.inc(3)
        assert registry.value("events", op="1:X") == 3
        assert registry.value("events", op="2:Y") == 0

    def test_same_name_different_kinds_coexist(self):
        """The instrument identity includes the kind, so a counter and a
        gauge under one name never collide or alias each other."""
        registry = MetricsRegistry()
        registry.counter("depth").inc(3)
        registry.gauge("depth").set(9)
        kinds = {record["type"]: record["value"]
                 for record in registry.snapshot()}
        assert kinds == {"counter": 3, "gauge": 9}

    def test_timer_requires_seconds_suffix(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="_seconds"):
            registry.timer("op_time")
        hist = registry.timer("op_seconds")
        hist.add(0.5)
        assert registry.timer("op_seconds").count == 1

    def test_histogram_summary(self):
        hist = MetricsRegistry().histogram("sizes")
        for value in (4, 2, 9):
            hist.observe(value)
        assert (hist.count, hist.total, hist.min, hist.max) == (3, 15, 2, 9)
        assert hist.mean == 5

    def test_snapshot_is_deterministic_and_plain_data(self):
        registry = MetricsRegistry()
        registry.gauge("b").set(2)
        registry.counter("a", op="9:Z").inc()
        registry.histogram("a", op="1:A").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot == registry.snapshot()
        assert [r["name"] for r in snapshot] == ["a", "a", "b"]
        assert all(isinstance(r["labels"], dict) for r in snapshot)

    def test_merge_adds_counters_and_histograms_sums_gauges(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        for registry, k in ((one, 2), (two, 5)):
            registry.counter("n").inc(k)
            registry.gauge("depth").set(k)
            registry.histogram("h").observe(k)
        one.merge(two)
        assert one.value("n") == 7
        assert one.value("depth") == 7  # decomposition semantics: sum
        hist = one.find("h")[0]
        assert (hist.count, hist.total, hist.min, hist.max) == (2, 7, 2, 5)

    def test_merge_with_extra_labels_keeps_originals_separate(self):
        child, parent = MetricsRegistry(), MetricsRegistry()
        child.counter("n", op="0:W").inc(4)
        parent.merge(child, {"shard": "1"})
        parent.merge(child)
        assert parent.value("n", op="0:W", shard="1") == 4
        assert parent.value("n", op="0:W") == 4


class TestExport:
    def test_document_roundtrip_and_validation(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("events", op="0:W").inc(7)
        registry.timer("op_seconds", op="0:W").add(0.25)
        path = tmp_path / "metrics.json"
        series = write_metrics_json(str(path), registry, {"mode": "nt"})
        document = json.loads(path.read_text())
        assert validate_metrics_document(document) == series == 2
        assert document["run"] == {"mode": "nt"}

    def test_empty_histogram_min_max_serialize(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("h")  # never observed: min=inf, max=-inf
        path = tmp_path / "metrics.json"
        write_metrics_json(str(path), registry, {})
        record = json.loads(path.read_text())["metrics"][0]
        assert record["count"] == 0
        assert record["min"] is None and record["max"] is None

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d.pop("schema"), "schema"),
        (lambda d: d.update(schema="bogus/v9"), "schema"),
        (lambda d: d.update(metrics={}), "list"),
        (lambda d: d["metrics"].append({"name": "x"}), "type"),
        (lambda d: d["metrics"].append(
            {"name": "x", "type": "counter", "labels": {"a": 1}}), "labels"),
        (lambda d: d["metrics"].append(
            {"name": "x", "type": "gauge", "labels": {}}), "value"),
    ])
    def test_validator_rejects_malformed_documents(self, mutate, message):
        registry = MetricsRegistry()
        registry.counter("ok").inc()
        document = metrics_document(registry, {})
        mutate(document)
        with pytest.raises(ValueError, match=message):
            validate_metrics_document(document)


# -- NULL_COUNTERS aliasing regression ----------------------------------------


class TestNullCountersAliasing:
    def test_two_standalone_buffers_never_share_touches(self):
        """Regression: the fallback sink used to be one shared *mutable*
        Counters, so every counter-less buffer accumulated into it."""
        from repro.buffers.fifo import FifoBuffer

        one, two = FifoBuffer(), FifoBuffer()
        one.insert(Tuple((1,), 0.0, 10.0))
        assert two.counters.touches == 0
        assert one.counters.touches == 0  # the null sink reads as zero
        assert len(one) == 1 and len(two) == 0  # state itself is private

    def test_null_sink_discards_writes_permanently(self):
        NULL_COUNTERS.touches += 100
        NULL_COUNTERS.inserts = 5
        assert NULL_COUNTERS.touches == 0
        assert NULL_COUNTERS.inserts == 0
        assert isinstance(NULL_COUNTERS, NullCounters)

    def test_explicit_counters_still_accumulate(self):
        from repro.buffers.fifo import FifoBuffer

        counters = Counters()
        buffer = FifoBuffer(counters=counters)
        buffer.insert(Tuple((1,), 0.0, 10.0))
        assert counters.touches == 1 and counters.inserts == 1


# -- equivalence: telemetry is observation only -------------------------------

#: Sample periods every equivalence test compares.
PERIODS = {"every-event": 1, "default": Driver.sample_events,
           "never": sys.maxsize}


def _observe(plan, mode, period, monkeypatch, *, batch=None, shards=None,
             backend="process", **cfg):
    monkeypatch.setattr(Driver, "sample_events", period)
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode, **cfg))
    outputs = []
    query.subscribe(lambda t, now: outputs.append((t, now)))
    result = query.run(iter(EVENTS), batch=batch, shards=shards,
                       shard_backend=backend)
    return {
        "outputs": outputs,
        "answer": sorted(result.answer().items()),
        "counters": result.counters.snapshot(),
        "loop": query.executor.batch_loop(),
        "events": result.events_processed,
        "tuples": result.tuples_arrived,
    }, result


def _across_periods(make_plan, mode, monkeypatch, **kwargs):
    """``_observe`` under every sample period; asserts they agree and
    returns the results, in ``PERIODS`` order."""
    observed = [_observe(make_plan(), mode, period, monkeypatch, **kwargs)
                for period in PERIODS.values()]
    first = observed[0][0]
    assert all(seen == first for seen, _result in observed)
    return [result for _seen, result in observed]


PLANS = [("join", _join_plan), ("minus", _minus_plan),
         ("groupby", _groupby_plan)]


class TestEquivalence:
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    @pytest.mark.parametrize("batch", [None, 7, 64])
    @pytest.mark.parametrize("shape", ["join", "groupby"])
    def test_single_query_regimes(self, mode, batch, shape, monkeypatch):
        for result in _across_periods(dict(PLANS)[shape], mode, monkeypatch,
                                      batch=batch):
            assert result.metrics.find("op_process_seconds")

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA])
    def test_strict_patterns(self, mode, monkeypatch):
        for result in _across_periods(_minus_plan, mode, monkeypatch,
                                      batch=16):
            patterns = {inst.labels.get("pattern")
                        for inst in result.metrics.find("op_process_seconds")}
            assert "STR" in patterns  # negation output is strict non-monotonic

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("batch", [None, 32])
    def test_sharded(self, backend, batch, monkeypatch):
        for result in _across_periods(_join_plan, Mode.NT, monkeypatch,
                                      shards=3, backend=backend, batch=batch):
            assert result.shards == 3
            assert len(result.shard_metrics) == 3
            assert result.metrics.find("op_process_seconds")

    def test_shared_group(self, monkeypatch):
        def run(period):
            monkeypatch.setattr(Driver, "sample_events", period)
            group = QueryGroup(shared=True)
            config = ExecutionConfig(mode=Mode.NT)
            group.add("a", _join_plan(), config)
            group.add("b", _join_plan(), config)
            result = group.run(iter(EVENTS), batch=16)
            return result, {
                "answers": {n: sorted(result.answer(n).items())
                            for n in ("a", "b")},
                "counters": {n: group[n].counters.snapshot()
                             for n in ("a", "b")},
                "shared": group.shared_counters().snapshot(),
                "loops": {n: group[n].executor.batch_loop()
                          for n in ("a", "b")},
            }

        runs = [run(period) for period in PERIODS.values()]
        assert runs[0][1] == runs[1][1] == runs[2][1]
        for result, _seen in runs:
            merged = result.metrics
            assert merged.find("op_process_seconds", query="a")
            assert any("producer" in inst.labels for inst in merged)


# -- shard decomposition exactness --------------------------------------------


def _series_key(inst, drop):
    labels = tuple(sorted((k, v) for k, v in inst.labels.items()
                          if k != drop))
    return (inst.name, inst.kind, labels)


class TestShardDecomposition:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_total_equals_sum_of_shards(self, backend, monkeypatch):
        _, result = _observe(_join_plan(), Mode.UPA, 64, monkeypatch,
                             shards=3, backend=backend)
        totals, shard_sums, shard_counts = {}, {}, {}
        for inst in result.metrics:
            if inst.name.startswith("router_"):
                continue
            key = _series_key(inst, drop="shard")
            value = inst.value if hasattr(inst, "value") else inst.total
            count_ = getattr(inst, "count", None)
            if "shard" in inst.labels:
                shard_sums[key] = shard_sums.get(key, 0.0) + value
                if count_ is not None:
                    shard_counts[key] = shard_counts.get(key, 0) + count_
            else:
                totals[key] = (value, count_)
        assert totals, "expected unlabeled total series"
        for key, (value, count_) in totals.items():
            assert shard_sums[key] == pytest.approx(value), key
            if count_ is not None:
                assert shard_counts[key] == count_, key

    def test_router_balance_exported(self, monkeypatch):
        _, result = _observe(_join_plan(), Mode.NT, Driver.sample_events,
                             monkeypatch, shards=2, backend="serial")
        arrivals = sum(
            inst.value
            for inst in result.metrics.find("router_shard_arrivals"))
        assert arrivals == result.tuples_arrived
        assert result.metrics.value("router_broadcasts") is not None

    def test_events_decompose(self, monkeypatch):
        _, result = _observe(_join_plan(), Mode.NT, Driver.sample_events,
                             monkeypatch, shards=2, backend="serial")
        # Tick broadcast: every shard sees the full timeline.
        per_shard = [registry.value("events_processed")
                     for registry in result.shard_metrics]
        assert all(v == result.events_processed for v in per_shard)

    def test_fallback_keeps_metrics(self, monkeypatch):
        b0, _ = _sources()
        plan = b0.group_by([], [count()]).build()  # keyless: unshardable
        _, result = _observe(plan, Mode.NT, Driver.sample_events,
                             monkeypatch, shards=2)
        assert result.fallback_reason is not None
        assert result.metrics.find("op_process_seconds")


# -- surfaces ------------------------------------------------------------------


def _filter_join_plan():
    b0, b1 = _sources()
    return b0.where(SMALL).join(b1, on="v").build()


def _filter_distinct_plan():
    b0, _ = _sources()
    return b0.where(SMALL).distinct().build()


def _metrics_footer(query) -> str:
    return next(line for line in query.explain().splitlines()
                if line.startswith("-- metrics:"))


class TestSurfaces:
    def test_explain_metrics_footer(self):
        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.NT))
        assert _metrics_footer(query) \
            == "-- metrics: registered on the first state sample"
        query.run(iter(EVENTS))
        assert _metrics_footer(query).startswith(
            f"-- metrics: {len(query.compiled.metrics)} instruments across "
            f"{len(query.compiled.ops)} operators; ")

    def test_building_a_query_registers_no_instrument(self):
        """Instruments, op labels and certificate bounds wait for the first
        state sample: compiling a query, a group or a shard replica
        registers nothing."""
        from repro.engine.shard import _SerialShards

        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.UPA))
        assert len(query.compiled.metrics) == 0
        group = QueryGroup(shared=True)
        group.add("a", _join_plan())
        group.add("b", _join_plan())
        pipelines = [group[name].compiled for name in group.names()]
        pipelines += [p.compiled for p in group.shared_producers()]
        shards = _SerialShards([("q", _join_plan(), None)], 2, 64, [False])
        pipelines += [driver.compiled for replica in shards.replicas
                      for _name, driver in replica.drivers]
        assert pipelines and all(len(c.metrics) == 0 for c in pipelines)
        query.executor.flush_metrics()
        assert len(query.compiled.metrics) > 0

    def test_metrics_present_after_every_runtime(self):
        """Every runtime reports: each result type carries a registry (an
        attribute, never None) holding at least one state sample, and every
        per-tuple runner times a block (``per_tuple``)."""
        def single(**kwargs):
            query = ContinuousQuery(_join_plan(),
                                    ExecutionConfig(mode=Mode.UPA))
            return query.run(iter(EVENTS), **kwargs)

        def grouped(shared, **kwargs):
            group = QueryGroup(shared=shared)
            group.add("a", _join_plan())
            group.add("b", _filter_join_plan())
            return group.run(iter(EVENTS), **kwargs)

        per_tuple = [single(), single(shards=2, shard_backend="serial"),
                     grouped(False), grouped(True),
                     grouped(False, shards=2, shard_backend="serial"),
                     grouped(True, shards=2)]  # shared: falls back
        batched = [single(batch=16),
                   single(shards=2, shard_backend="process", batch=16),
                   grouped(True, batch=16)]
        for result in per_tuple + batched:
            assert isinstance(result.metrics, MetricsRegistry), result
            assert result.metrics.find("state_tuples")[0].count >= 1, result
            assert result.metrics.find("events_processed"), result
        for result in per_tuple:
            assert any(p.count for p in result.metrics.find(
                "phase_seconds", phase="per_tuple")), result

    def test_armed_batch_export_names_every_mechanism(self, monkeypatch):
        """A ``run(batch=64)`` whose every batch is armed carries phase
        timers for every phase of its loop, pass and per-operator
        expiration timers, state beside its certificate bound, expiration
        lag, and exact totals."""
        monkeypatch.setattr(Driver, "sample_events", 1)
        for plan, phases in (
                (_filter_distinct_plan(),
                 {"column", "replay", "rows", "view_purge", "per_tuple"}),
                (_groupby_plan(), {"rows", "view_purge", "per_tuple"})):
            result = ContinuousQuery(
                plan, ExecutionConfig(mode=Mode.UPA)).run(iter(EVENTS),
                                                          batch=64)
            metrics = result.metrics
            document = metrics_document(metrics, {})
            assert validate_metrics_document(document) == len(metrics)
            found = metrics.find("phase_seconds")
            assert {inst.labels["phase"] for inst in found} == phases
            # "rows" is the column loop's fallback and "per_tuple" the
            # per-tuple runners' phase: registered, not run here.
            charged = {inst.labels["phase"] for inst in found if inst.count}
            assert charged == phases - {"per_tuple"} - (
                {"rows"} if "column" in phases else set())
            batches = -(-len(EVENTS) // 64)
            assert all(inst.count == batches for inst in found
                       if inst.labels["phase"] in charged)
            for name in ("expiration_pass_seconds", "op_expire_seconds"):
                assert sum(inst.count for inst in metrics.find(name)) > 0
            for name in ("op_state_tuples", "op_state_bound",
                         "expiration_lag"):
                assert metrics.find(name), name
            assert metrics.value("state_tuples_peak") is not None
            assert metrics.find("state_tuples")[0].count == batches + 1
            assert metrics.value("events_processed") == len(EVENTS)
            assert metrics.value("tuples_arrived") == result.tuples_arrived
            assert metrics.find("run_seconds")[0].count == 1

    def test_column_phase_charges_the_leaf_timer(self):
        result = ContinuousQuery(
            _filter_distinct_plan(), ExecutionConfig(mode=Mode.UPA)
        ).run(iter(EVENTS), batch=64)
        charged = {inst.labels["kind"]
                   for inst in result.metrics.find("op_process_seconds")
                   if inst.count}
        assert charged == {"WindowOp"}

    def test_explain_reports_a_finished_armed_run(self):
        query = ContinuousQuery(_filter_distinct_plan(),
                                ExecutionConfig(mode=Mode.UPA))
        assert "phases" not in query.explain()
        query.run(iter(EVENTS), batch=16)
        footer = _metrics_footer(query)
        assert "phases " in footer and "replay" in footer
        assert "worst expiration lag" in footer
        assert "state peak" in footer and "/ bound" in footer

    @pytest.mark.parametrize("case,batch,phase", [
        ("row-loop", 16, "rows"), ("per-tuple", None, "per_tuple")])
    def test_explain_reports_every_runtime(self, case, batch, phase):
        """Like the column loop above, the row loop and a per-tuple run
        report phase shares, the worst lag and peak state against its
        bound."""
        make_plan = _minus_plan if case == "row-loop" else _filter_join_plan
        query = ContinuousQuery(make_plan(), ExecutionConfig(mode=Mode.UPA))
        query.run(iter(EVENTS), batch=batch)
        footer = _metrics_footer(query)
        assert "; phases " in footer and f" {phase} " in footer
        assert "worst expiration lag" in footer
        assert "state peak" in footer and "/ bound" in footer

    def test_cli_metrics_out(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.trace_io import write_trace

        trace = tmp_path / "trace.tsv"
        write_trace(str(trace),
                    (Arrival(0.5 * i, f"link{i % 2}",
                             (1.0, "ftp", 100 + i,
                              f"10.0.0.{i % 4}", f"10.1.0.{i % 3}"))
                     for i in range(200)))
        out = tmp_path / "metrics.json"
        code = main(["run",
                     "SELECT * FROM link0 [RANGE 20] JOIN link1 [RANGE 20] "
                     "ON link0.src_ip = link1.src_ip",
                     "--trace", str(trace), "--mode", "nt",
                     "--metrics-out", str(out)])
        assert code == 0
        assert "metrics: wrote" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert validate_metrics_document(document) > 0
        assert document["run"]["command"] == "run"

    def test_cli_run_group_metrics_out(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.trace_io import write_trace

        trace = tmp_path / "trace.tsv"
        write_trace(str(trace),
                    (Arrival(0.5 * i, f"link{i % 2}",
                             (1.0, "ftp", 100 + i,
                              f"10.0.0.{i % 4}", f"10.1.0.{i % 3}"))
                     for i in range(120)))
        out = tmp_path / "group.json"
        code = main(["run-group",
                     "SELECT * FROM link0 [RANGE 20]",
                     "SELECT DISTINCT src_ip FROM link0 [RANGE 20]",
                     "--trace", str(trace), "--mode", "nt",
                     "--metrics-out", str(out)])
        assert code == 0
        assert "metrics: wrote" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert validate_metrics_document(document) > 0
        names = {record["labels"].get("query")
                 for record in document["metrics"]}
        assert {"q1", "q2"} <= names


class TestArmedRunsTheSameLoops:
    """Arming a batch changes what is recorded, never which code runs:
    every sample period takes the same loop, the same program and closures,
    and produces the same stream, counters and answer."""

    CASES = {
        "column-loop": (_filter_join_plan, 16, "-- columnar: on (2 column"),
        "row-loop": (_minus_plan, 16, "-- columnar: row loop: no stateless"),
        "per-tuple": (_filter_join_plan, None, "-- columnar: on (2 column"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_armed_equals_unarmed(self, case, monkeypatch):
        make_plan, batch, footer = self.CASES[case]
        observed = []
        for period in PERIODS.values():
            monkeypatch.setattr(Driver, "sample_events", period)
            query = ContinuousQuery(make_plan(),
                                    ExecutionConfig(mode=Mode.UPA))
            outputs = []
            query.subscribe(lambda t, now, out=outputs: out.append((t, now)))
            described = query.executor.program.describe()
            closure = query.executor.process_event
            result = query.run(iter(EVENTS), batch=batch)
            columnar = next(line for line in query.explain().splitlines()
                            if line.startswith("-- columnar:"))
            assert columnar.startswith(footer)
            assert query.executor.program.describe() == described
            assert query.executor.process_event is closure
            observed.append((columnar, described, outputs,
                             result.counters.snapshot(),
                             sorted(result.answer().items())))
        assert observed[0] == observed[1] == observed[2]


def _profile(run):
    import cProfile
    import gc
    import pstats

    profiler = cProfile.Profile()
    gc.disable()  # collector callbacks (hypothesis installs one) are calls
    try:
        profiler.enable()
        run()
        profiler.disable()
    finally:
        gc.enable()
    return pstats.Stats(profiler)


def _total_calls(run) -> int:
    return _profile(run).total_calls


class TestArmedCallBudget:
    """Exact, not wall-clock: what sampling costs in calls over a fixed
    4 096-arrival trace."""

    ARRIVALS = [Arrival(0.25 * i, f"s{i % 2}", (i * 7 % 5,))
                for i in range(4096)]
    BATCH = 64
    #: Extra calls one sample period may cost: the sample (per operator a
    #: depth read and its gauge, the lag scan of lazily purged ones, one
    #: fold per clock delta of the armed batch; the first one also
    #: registers, 200–330 calls here, amortized) and the armed batch (one
    #: clock read per phase boundary, column-phase call and operator of
    #: its first pass).  Measured: 26–39 per period plus registration.
    C = 48

    def _chunks(self):
        return [self.ARRIVALS[i:i + self.BATCH]
                for i in range(0, len(self.ARRIVALS), self.BATCH)]

    def _driver(self, plan, period, monkeypatch):
        monkeypatch.setattr(Driver, "sample_events", period)
        return ContinuousQuery(
            plan, ExecutionConfig(mode=Mode.UPA)).executor

    @pytest.mark.parametrize("make_plan", [_filter_join_plan,
                                           _filter_distinct_plan,
                                           _groupby_plan])
    def test_batch_loops_pay_per_batch_not_per_event(self, make_plan,
                                                     monkeypatch):
        """One sample period costs at most ``C`` calls, however many
        events it spans: a period of one batch against none."""
        calls = {}
        for period in (self.BATCH, sys.maxsize):
            driver = self._driver(make_plan(), period, monkeypatch)

            def run(driver=driver, chunks=self._chunks()):
                for chunk in chunks:
                    driver.process_batch(chunk)

            calls[period] = _total_calls(run)
        extra = calls[self.BATCH] - calls[sys.maxsize]
        assert 0 < extra <= self.C * len(self._chunks())

    @pytest.mark.parametrize("make_plan", [_filter_join_plan,
                                           _filter_distinct_plan,
                                           _groupby_plan])
    def test_unsampled_batch_makes_no_extra_calls(self, make_plan,
                                                  monkeypatch):
        """Between samples a batch makes no call a never-sampling driver
        does not make: it reads no clock, and its only telemetry is the
        sample check, inlined in the loop."""
        calls = {}
        for period in (Driver.sample_events, sys.maxsize):
            driver = self._driver(make_plan(), period, monkeypatch)
            first, second, third, *_rest = self._chunks()
            driver.process_batch(first)  # armed: the one after construction
            driver.process_batch(second)
            stats = _profile(lambda driver=driver: driver.process_batch(third))
            calls[period] = stats.total_calls
            called = {(file.rsplit("/", 1)[-1], name): counts[1]
                      for (file, _line, name), counts in stats.stats.items()}
            assert not any(file == "telemetry.py" or "perf_counter" in name
                           for file, name in called)
            assert ("driver.py", "maybe_sample") not in called
        assert calls[Driver.sample_events] == calls[sys.maxsize]

    def test_per_tuple_closure_pays_nothing(self, monkeypatch):
        calls = {}
        for period in (1, sys.maxsize):
            driver = self._driver(_filter_join_plan(), period, monkeypatch)

            def run(process=driver.process_event):
                for event in self.ARRIVALS:
                    process(event)

            calls[period] = _total_calls(run)
        assert calls[1] == calls[sys.maxsize]


class TestStateGauges:
    """Section 5.4.2's memory trade-offs, read off the registry's state
    gauges (what ``engine/profiling`` used to measure on the side)."""

    def _run(self, batch=None, **cfg):
        from conftest import random_arrivals

        b0, b1 = _sources()
        query = ContinuousQuery(b0.join(b1, on="v").build(),
                                ExecutionConfig(**cfg))
        query.executor.sample_events = 10
        events = random_arrivals(n=400, seed=23)
        return query.run(events, batch=batch).metrics, len(events)

    def test_samples_taken_at_interval(self):
        metrics, n = self._run(mode=Mode.UPA)
        # One sample per full block of 10 events, one final at flush.
        assert metrics.find("state_tuples")[0].count == n // 10 + 1
        assert (metrics.value("state_tuples_peak")
                == metrics.find("state_tuples")[0].max)

    def test_lazier_purging_retains_more_state(self):
        """A longer lazy interval trades memory for time — and shows as
        expiration lag."""
        eager, _ = self._run(mode=Mode.UPA, lazy_interval=0.5)
        lazy, _ = self._run(mode=Mode.UPA, lazy_interval=40.0)
        assert (lazy.value("state_tuples_peak")
                > eager.value("state_tuples_peak"))
        worst = lambda m: max(g.value for g in m.find("expiration_lag"))  # noqa: E731
        assert worst(lazy) > worst(eager)

    def test_nt_stores_windows_on_top_of_operator_state(self):
        """NT must materialize the base windows (Section 2.3.1)."""
        nt, _ = self._run(mode=Mode.NT)
        upa, _ = self._run(mode=Mode.UPA, lazy_interval=0.5)
        assert nt.value("state_tuples_peak") > upa.value("state_tuples_peak")

    def test_state_sits_beside_its_certificate_bound(self):
        metrics, _ = self._run(mode=Mode.UPA)
        bounds = {g.labels["op"]: g.value
                  for g in metrics.find("op_state_bound")}
        depths = {g.labels["op"] for g in metrics.find("op_state_tuples")}
        assert bounds and set(bounds) <= depths
        assert all(0 < value < math.inf for value in bounds.values())

    @pytest.mark.parametrize("batch", [None, 64])
    def test_every_nt_lag_reads_zero(self, batch):
        """Under NT negative tuples delete every stored tuple at its
        ``exp``: at every event (or batch) boundary no operator still
        stores a tuple whose ``exp`` the clock has reached — even with a
        lazy interval that makes the UPA join trail the clock.  So no
        operator is lazily purged: only the eager windows carry a lag
        gauge, it reads 0, and the sample never scans for it."""
        from conftest import random_arrivals

        b0, b1 = _sources()
        query = ContinuousQuery(b0.join(b1, on="v").build(), ExecutionConfig(
            mode=Mode.NT, lazy_interval=40.0))
        executor = query.executor
        buffers = [buffer for op in query.compiled.ops.values()
                   for _label, buffer in op.state_buffers()
                   if buffer is not None]
        assert buffers
        events = random_arrivals(n=400, seed=23)
        step = batch or 1
        holding = 0
        for start in range(0, len(events), step):
            if batch:
                executor.process_batch(events[start:start + step])
            else:
                executor.process_event(events[start])
            # next_expiry(-inf): the oldest stored exp, expired included.
            oldest = min(buffer.next_expiry(-math.inf) for buffer in buffers)
            assert oldest > executor.now, (start, oldest, executor.now)
            holding += oldest < math.inf
        assert holding  # state was held, so the check was not vacuous

        nt = executor.flush_metrics()
        lags = nt.find("expiration_lag")
        assert not query.compiled.lazy_ops
        assert {g.labels["kind"] for g in lags} == {"WindowOp"}
        assert all(g.value == 0.0 for g in lags)
        assert not any(scanned for _op, _depth, _lag, scanned
                       in executor._metrics._ops)
        upa, _ = self._run(batch=batch, mode=Mode.UPA, lazy_interval=40.0)
        assert max(g.value for g in upa.find("expiration_lag")) > 0


# -- every runtime samples ----------------------------------------------------


def _quiet_tail_trace(n=600):
    """``n`` arrivals, then a tick past every window: the state at the end
    of the run is empty, so a peak above 0 proves a sample mid-run."""
    from conftest import random_arrivals

    events = list(random_arrivals(n=n, seed=5))
    return events + [Tick(events[-1].ts + 100.0)]


def _shared_member_plans():
    """Two queries over one shared δ; each keeps join state of its own."""
    b0, b1 = _sources()
    c0, c1 = _sources()
    return (b0.distinct().join(b1, on="v").build(),
            c0.distinct().join(c1.where(SMALL), on="v").build())


class TestSamplesEveryRuntime:
    """Every runner takes state samples mid-run — per tuple and batched —
    not only ``ContinuousQuery.run``: group members and producers, and the
    replicas of both shard backends."""

    PERIOD = 64

    @pytest.mark.parametrize("batch", [None, 64])
    def test_peak_seen_mid_run_by_every_runtime(self, batch, monkeypatch):
        monkeypatch.setattr(Driver, "sample_events", self.PERIOD)
        events = _quiet_tail_trace()
        config = ExecutionConfig(mode=Mode.UPA)
        single = ContinuousQuery(_join_plan(), config).run(events,
                                                           batch=batch)
        independent = QueryGroup()
        independent.add("a", _join_plan(), config)
        independent.add("b", _minus_plan(), config)
        member = independent.run(events, batch=batch)
        shared = QueryGroup(shared=True)
        for name, plan in zip("ab", _shared_member_plans()):
            shared.add(name, plan, config)
        fused = shared.run(events, batch=batch)
        assert shared.shared_producers()
        peaks = {
            "single": single.metrics.value("state_tuples_peak"),
            "independent": member.metrics.value("state_tuples_peak",
                                                query="a"),
            "shared": fused.metrics.value("state_tuples_peak", query="a"),
            "producer": fused.metrics.value("state_tuples_peak",
                                            producer="S1"),
        }
        for backend in ("serial", "process"):
            sharded = ContinuousQuery(_join_plan(), config).run(
                events, batch=batch, shards=2, shard_backend=backend)
            assert sharded.fallback_reason is None
            peaks[backend] = sharded.metrics.value("state_tuples_peak")
        assert all(peak > 0 for peak in peaks.values()), peaks
        assert single.metrics.value("state_tuples_total") == 0
        if batch is None:
            assert peaks["independent"] == peaks["single"]
