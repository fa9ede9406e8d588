"""Telemetry layer: registry semantics, equivalence, and decomposition.

Three guarantees are checked here:

* **Registry semantics** — labeled instrument identity, deterministic
  snapshots, label-wise merge (counters/histograms add, gauges sum), JSON
  export and the hand-rolled schema validator.
* **Equivalence** — answers, output streams and legacy counter snapshots
  are byte-identical with telemetry on vs off, across per-tuple, batched,
  shared-group and sharded execution under every strategy (telemetry is
  observation only).
* **Decomposition** — after a sharded run, every unlabeled metric series
  equals the sum of its ``shard=i`` series exactly, mirroring the counter
  decomposition guarantee.

Also here: the ``NULL_COUNTERS`` aliasing regression (the shared fallback
sink used to be a *mutable* ``Counters``, so unrelated buffers accumulated
into one bag).
"""

import json
import math

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


def _observe(plan, mode, telemetry, *, batch=None, shards=None,
             backend="process", **cfg):
    query = ContinuousQuery(
        plan, ExecutionConfig(mode=mode, telemetry=telemetry, **cfg))
    outputs = []
    query.subscribe(lambda t, now: outputs.append((t, now)))
    result = query.run(iter(EVENTS), batch=batch, shards=shards,
                       shard_backend=backend)
    return {
        "outputs": outputs,
        "answer": sorted(result.answer().items()),
        "counters": (result.counters.snapshot()
                     if shards is None else None),
        "events": result.events_processed,
        "tuples": result.tuples_arrived,
    }, result


PLANS = [("join", _join_plan), ("minus", _minus_plan),
         ("groupby", _groupby_plan)]


class TestEquivalence:
    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    @pytest.mark.parametrize("batch", [None, 7, 64])
    @pytest.mark.parametrize("shape", ["join", "groupby"])
    def test_single_query_regimes(self, mode, batch, shape):
        plan = dict(PLANS)[shape]()
        base, _ = _observe(plan, mode, False, batch=batch)
        got, result = _observe(plan, mode, True, batch=batch)
        assert got == base
        assert result.metrics is not None
        assert result.metrics.find("op_process_seconds")

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA])
    def test_strict_patterns(self, mode):
        base, _ = _observe(_minus_plan(), mode, False, batch=16)
        got, result = _observe(_minus_plan(), mode, True, batch=16)
        assert got == base
        patterns = {inst.labels.get("pattern")
                    for inst in result.metrics.find("op_process_seconds")}
        assert "STR" in patterns  # negation output is strict non-monotonic

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("batch", [None, 32])
    def test_sharded(self, backend, batch):
        base, base_result = _observe(_join_plan(), Mode.NT, False,
                                     shards=3, backend=backend, batch=batch)
        got, result = _observe(_join_plan(), Mode.NT, True,
                               shards=3, backend=backend, batch=batch)
        assert got == base
        assert base_result.counters.snapshot() == result.counters.snapshot()
        assert result.metrics is not None
        assert len(result.shard_metrics) == 3
        assert base_result.metrics is None

    def test_shared_group(self):
        def run(telemetry):
            group = QueryGroup(shared=True)
            config = ExecutionConfig(mode=Mode.NT, telemetry=telemetry)
            group.add("a", _join_plan(), config)
            group.add("b", _join_plan(), config)
            result = group.run(iter(EVENTS), batch=16)
            return result, {
                "answers": {n: sorted(result.answer(n).items())
                            for n in ("a", "b")},
                "touches": result.touches(),
                "shared": result.shared_touches(),
            }

        off_result, off = run(False)
        on_result, on = run(True)
        assert on == off
        assert off_result.metrics() is None
        merged = on_result.metrics()
        assert merged is not None
        assert merged.find("op_process_seconds", query="a")
        assert any("producer" in inst.labels for inst in merged)


# -- shard decomposition exactness --------------------------------------------


def _series_key(inst, drop):
    labels = tuple(sorted((k, v) for k, v in inst.labels.items()
                          if k != drop))
    return (inst.name, inst.kind, labels)


class TestShardDecomposition:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_total_equals_sum_of_shards(self, backend):
        _, result = _observe(_join_plan(), Mode.UPA, True,
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

    def test_router_balance_exported(self):
        _, result = _observe(_join_plan(), Mode.NT, True, shards=2,
                             backend="serial")
        arrivals = sum(
            inst.value
            for inst in result.metrics.find("router_shard_arrivals"))
        assert arrivals == result.tuples_arrived
        assert result.metrics.value("router_broadcasts") is not None

    def test_events_decompose(self):
        _, result = _observe(_join_plan(), Mode.NT, True, shards=2,
                             backend="serial")
        # Tick broadcast: every shard sees the full timeline.
        per_shard = [registry.value("events_processed")
                     for registry in result.shard_metrics]
        assert all(v == result.events_processed for v in per_shard)

    def test_fallback_keeps_metrics(self):
        b0, _ = _sources()
        plan = b0.group_by([], [count()]).build()  # keyless: unshardable
        _, result = _observe(plan, Mode.NT, True, shards=2)
        assert result.fallback_reason is not None
        assert result.metrics is not None
        assert result.metrics.find("op_process_seconds")


# -- surfaces ------------------------------------------------------------------


class TestSurfaces:
    def test_explain_metrics_footer(self):
        query = ContinuousQuery(_join_plan(), ExecutionConfig(mode=Mode.NT))
        assert "-- metrics: off" in query.explain()
        armed = ContinuousQuery(
            _join_plan(), ExecutionConfig(mode=Mode.NT, telemetry=True))
        assert "-- metrics: on" in armed.explain()

    def test_run_result_metrics_none_when_off(self):
        _, result = _observe(_join_plan(), Mode.NT, False)
        assert result.metrics is None

    def test_armed_batch_export_names_every_mechanism(self):
        """One armed ``run(batch=64)`` carries phase timers for every phase
        of its loop, pass and per-operator expiration timers, state beside
        its certificate bound, expiration lag, and exact totals."""
        for plan, phases in (
                (_filter_distinct_plan(),
                 {"column", "replay", "rows", "view_purge"}),
                (_groupby_plan(), {"rows", "view_purge"})):
            _, result = _observe(plan, Mode.UPA, True, batch=64)
            metrics = result.metrics
            document = metrics_document(metrics, {})
            assert validate_metrics_document(document) == len(metrics)
            found = metrics.find("phase_seconds")
            assert {inst.labels["phase"] for inst in found} == phases
            # "rows" is the column loop's fallback: registered, not run.
            assert all(inst.count for inst in found
                       if inst.labels["phase"] != "rows" or len(phases) == 2)
            for name in ("expiration_pass_seconds", "op_expire_seconds"):
                assert sum(inst.count for inst in metrics.find(name)) > 0
            for name in ("op_state_tuples", "op_state_bound",
                         "expiration_lag"):
                assert metrics.find(name), name
            assert metrics.value("state_tuples_peak") is not None
            assert metrics.find("state_tuples")[0].count >= 1
            assert metrics.value("events_processed") == len(EVENTS)
            assert metrics.value("tuples_arrived") == result.tuples_arrived
            assert metrics.find("run_seconds")[0].count == 1

    def test_column_phase_charges_the_leaf_timer(self):
        _, result = _observe(_filter_distinct_plan(), Mode.UPA, True,
                             batch=64)
        charged = {inst.labels["kind"]
                   for inst in result.metrics.find("op_process_seconds")
                   if inst.count}
        assert charged == {"WindowOp"}

    def test_explain_reports_a_finished_armed_run(self):
        query = ContinuousQuery(
            _filter_distinct_plan(),
            ExecutionConfig(mode=Mode.UPA, telemetry=True))
        assert "phases" not in query.explain()
        query.run(iter(EVENTS), batch=16)
        footer = next(line for line in query.explain().splitlines()
                      if line.startswith("-- metrics:"))
        assert "phases " in footer and "replay" in footer
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


def _filter_join_plan():
    b0, b1 = _sources()
    return b0.where(SMALL).join(b1, on="v").build()


def _filter_distinct_plan():
    b0, _ = _sources()
    return b0.where(SMALL).distinct().build()


class TestArmedRunsTheSameLoops:
    """Arming changes what is recorded, never which code runs."""

    CASES = {
        "column-loop": (_filter_join_plan, 16, "-- columnar: on (2 column"),
        "row-loop": (_minus_plan, 16, "-- columnar: row loop: no stateless"),
        "per-tuple": (_filter_join_plan, None, "-- columnar: on (2 column"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_armed_equals_unarmed(self, case):
        make_plan, batch, footer = self.CASES[case]
        observed = []
        for telemetry in (False, True):
            query = ContinuousQuery(
                make_plan(), ExecutionConfig(mode=Mode.UPA,
                                             telemetry=telemetry))
            outputs = []
            query.subscribe(lambda t, now, out=outputs: out.append((t, now)))
            described = query.executor.program.describe()
            result = query.run(iter(EVENTS), batch=batch)
            columnar = next(line for line in query.explain().splitlines()
                            if line.startswith("-- columnar:"))
            assert columnar.startswith(footer)
            assert query.executor.program.describe() == described
            observed.append((columnar, described, outputs,
                             result.counters.snapshot(),
                             sorted(result.answer().items())))
        assert observed[0] == observed[1]


def _total_calls(run) -> int:
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
    return pstats.Stats(profiler).total_calls


class TestArmedCallBudget:
    """Exact, not wall-clock: what arming costs in calls over a fixed
    4 096-arrival trace."""

    ARRIVALS = [Arrival(0.25 * i, f"s{i % 2}", (i * 7 % 5,))
                for i in range(4096)]
    BATCH = 64
    #: Extra calls per batch an armed driver may make: per batch 4 clock
    #: reads + 3 phase adds + ``_end_batch``; per pass (at most one is
    #: timed per batch) and per column-phase call 2 reads + 1 add; a state
    #: sample every ``sample_events`` events, amortized.
    C = 32

    def _driver(self, plan, telemetry):
        return ContinuousQuery(
            plan, ExecutionConfig(mode=Mode.UPA, telemetry=telemetry)
        ).executor.driver

    @pytest.mark.parametrize("make_plan", [_filter_join_plan,
                                           _filter_distinct_plan,
                                           _groupby_plan])
    def test_batch_loops_pay_per_batch_not_per_event(self, make_plan):
        calls = {}
        for telemetry in (False, True):
            driver = self._driver(make_plan(), telemetry)
            chunks = [self.ARRIVALS[i:i + self.BATCH]
                      for i in range(0, len(self.ARRIVALS), self.BATCH)]

            def run(driver=driver, chunks=chunks):
                for chunk in chunks:
                    driver.process_batch(chunk)

            calls[telemetry] = _total_calls(run)
        extra = calls[True] - calls[False]
        assert 0 < extra <= self.C * (len(self.ARRIVALS) // self.BATCH)

    def test_per_tuple_closure_pays_nothing(self):
        calls = {}
        for telemetry in (False, True):
            driver = self._driver(_filter_join_plan(), telemetry)

            def run(process=driver.process_event):
                for event in self.ARRIVALS:
                    process(event)

            calls[telemetry] = _total_calls(run)
        assert calls[True] == calls[False]


class TestStateGauges:
    """Section 5.4.2's memory trade-offs, read off the registry's state
    gauges (what ``engine/profiling`` used to measure on the side)."""

    def _run(self, **cfg):
        from conftest import random_arrivals

        b0, b1 = _sources()
        query = ContinuousQuery(b0.join(b1, on="v").build(),
                                ExecutionConfig(telemetry=True, **cfg))
        query.executor.driver.sample_events = 10
        events = random_arrivals(n=400, seed=23)
        return query.run(events).metrics, len(events)

    def test_samples_taken_at_interval(self):
        metrics, n = self._run(mode=Mode.UPA)
        # One sample per full block of 10 events, one for the trailing
        # partial block, one final sample at flush.
        assert metrics.find("state_tuples")[0].count == -(-n // 10) + 1
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
