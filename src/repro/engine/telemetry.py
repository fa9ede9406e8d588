"""Runtime telemetry: labeled metrics registry, timers, and JSON export.

The paper's evaluation (Section 6) is entirely metric-driven — execution
time per 1000 tuples, state sizes, per-operator costs as functions of the
window size — yet the legacy surface exposes only one flat
:class:`~repro.core.metrics.Counters` bag per pipeline.  This module adds
the observability layer the cost model (Section 5.4) is validated against:

* :class:`MetricsRegistry` — a bag of *labeled* instruments (counters,
  gauges, histograms/timers) keyed by ``(metric name, label set)``.  Labels
  identify the operator (stable per-plan id), its update-pattern class
  (MONOTONIC/WKS/WK/STR), and — after a sharded run — the shard index, so
  per-operator cost-model predictions can be checked against what the
  engine actually did.
* **Always on, paid for by sampling** — every compiled pipeline carries
  its registry.  Counters, fallbacks, state gauges and expiration lag are
  exact; clocks are read on one batch per sample period only, and
  instruments are registered on the first state sample, so building a
  query registers nothing (:class:`DriverMetrics`).
* **Label-wise merge** — :meth:`MetricsRegistry.merge_snapshot` folds one
  registry's snapshot into another, optionally adding labels.  A sharded
  run merges every worker's registry twice: once under ``shard=i`` and once
  into the unlabeled totals, so the decomposition *total = Σ shards* holds
  exactly per (name, label set) — mirroring the counter-decomposition
  guarantee of the sharded executor.
* **JSON export** — :func:`metrics_document` / :func:`write_metrics_json`
  produce a versioned, schema-checkable document (CLI ``--metrics-out``),
  and :func:`validate_metrics_document` is the schema check CI gates on.

Telemetry is observation only: instruments never feed back into answers,
output streams, or the deterministic counters, so runs are byte-identical
whatever the sample period (the equivalence suite in
``tests/test_telemetry.py`` checks this across all execution regimes).
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

#: Version tag of the exported JSON document; bump on breaking changes.
METRICS_SCHEMA = "repro.metrics/v1"

_TYPES = ("counter", "gauge", "histogram")


def _label_key(labels: Mapping[str, str]) -> tuple:
    """Canonical hashable identity of a label set."""
    return tuple(sorted(labels.items()))


class Instrument:
    """Base class of all metric instruments.

    An instrument is identified by its metric ``name`` plus its ``labels``
    (a mapping of string keys to string values); the registry guarantees at
    most one live instrument per identity.
    """

    __slots__ = ("name", "labels")
    kind = "instrument"

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)

    def record(self) -> dict:
        """One snapshot record: identity plus this instrument's values."""
        out = {"name": self.name, "type": self.kind, "labels": dict(self.labels)}
        out.update(self._values())
        return out

    def _values(self) -> dict:
        raise NotImplementedError

    def combine(self, record: dict) -> None:
        """Fold a snapshot record of the same kind into this instrument."""
        raise NotImplementedError

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"{type(self).__name__}({self.name}{{{inner}}}, {self._values()})"


class CounterMetric(Instrument):
    """Monotonically increasing labeled count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str]):
        super().__init__(name, labels)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def _values(self) -> dict:
        return {"value": self.value}

    def combine(self, record: dict) -> None:
        self.value += record["value"]


class GaugeMetric(Instrument):
    """Last-observed labeled value (e.g. a queue depth).

    Merging sums gauges — the natural semantics for the decomposed
    quantities this engine gauges (state sizes, queue depths, router
    balance), where the group/shard total is the sum of the parts.
    """

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str]):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (peak state sizes)."""
        if value > self.value:
            self.value = value

    def _values(self) -> dict:
        return {"value": self.value}

    def combine(self, record: dict) -> None:
        self.value += record["value"]


class HistogramMetric(Instrument):
    """Streaming summary (count / total / min / max) of observed values.

    Used both for value distributions and — under the ``*_seconds`` naming
    convention — as the accumulator behind operator timing spans.  ``add``
    is the hot-path entry: one attribute-cached method call per span.
    """

    __slots__ = ("count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: Mapping[str, str]):
        super().__init__(name, labels)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    #: Alias matching conventional histogram vocabulary.
    observe = add

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _values(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def combine(self, record: dict) -> None:
        self.count += record["count"]
        self.total += record["total"]
        if record["min"] is not None and record["min"] < self.min:
            self.min = record["min"]
        if record["max"] is not None and record["max"] > self.max:
            self.max = record["max"]


class MetricsRegistry:
    """A mutable bag of labeled instruments.

    Instruments are created on first access and persist for the registry's
    lifetime; repeated ``counter``/``gauge``/``histogram`` calls with the
    same identity return the same object, so hot paths resolve their
    instruments once at compile time and call plain methods afterwards.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, Instrument] = {}

    # -- instrument accessors ------------------------------------------------

    def _get(self, cls, name: str, labels: Mapping[str, str]) -> Instrument:
        key = (name, cls.kind, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):  # pragma: no cover - guarded by key
            raise ValueError(f"metric {name!r} already registered with kind "
                             f"{instrument.kind!r}")
        return instrument

    def counter(self, name: str, **labels: str) -> CounterMetric:
        return self._get(CounterMetric, name, labels)

    def gauge(self, name: str, **labels: str) -> GaugeMetric:
        return self._get(GaugeMetric, name, labels)

    def histogram(self, name: str, **labels: str) -> HistogramMetric:
        return self._get(HistogramMetric, name, labels)

    def timer(self, name: str, **labels: str) -> HistogramMetric:
        """A histogram under the ``*_seconds`` timing convention."""
        if not name.endswith("_seconds"):
            raise ValueError(
                f"timer metric names end in '_seconds', got {name!r}")
        return self._get(HistogramMetric, name, labels)

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterable[Instrument]:
        return iter(self._instruments.values())

    def find(self, name: str, **labels: str) -> list[Instrument]:
        """Instruments matching ``name`` whose labels include ``labels``."""
        wanted = labels.items()
        return [inst for inst in self._instruments.values()
                if inst.name == name
                and all(inst.labels.get(k) == v for k, v in wanted)]

    def value(self, name: str, **labels: str) -> float | int | None:
        """Convenience: the value of the single counter/gauge matching the
        *exact* label set, or None when absent."""
        for kind in ("counter", "gauge"):
            inst = self._instruments.get((name, kind, _label_key(labels)))
            if inst is not None:
                return inst.value
        return None

    def snapshot(self) -> list[dict]:
        """Deterministically ordered plain-data records of every instrument
        (picklable: this is what shard workers ship over their pipes)."""
        records = [inst.record() for inst in self._instruments.values()]
        records.sort(key=lambda r: (r["name"], r["type"],
                                    sorted(r["labels"].items())))
        return records

    # -- merging -------------------------------------------------------------

    def merge_snapshot(self, snapshot: Iterable[dict],
                       extra_labels: Mapping[str, str] | None = None) -> None:
        """Fold ``snapshot`` records into this registry label-wise.

        ``extra_labels`` are added to every record's labels before the fold
        — the sharded merge tags worker snapshots with ``shard=i`` this way.
        Counters and histograms add; gauges sum (decomposition semantics).
        """
        classes = {"counter": CounterMetric, "gauge": GaugeMetric,
                   "histogram": HistogramMetric}
        for record in snapshot:
            labels = dict(record["labels"])
            if extra_labels:
                labels.update(extra_labels)
            cls = classes[record["type"]]
            self._get(cls, record["name"], labels).combine(record)

    def merge(self, other: "MetricsRegistry",
              extra_labels: Mapping[str, str] | None = None) -> None:
        self.merge_snapshot(other.snapshot(), extra_labels)


class DriverMetrics:
    """Everything one driver charges: always on, registered lazily.

    **Sampled timing.**  ``timed`` is set by every state sample (and at
    construction), and the batch loops read it once per batch, so exactly
    one batch per ``Driver.sample_events`` period — the batch after each
    sample — reads clocks; every other batch reads none and makes no extra
    call.  The sampled batch adds its phase-boundary deltas into the flat
    ``acc`` list (slots ``ROWS`` … ``PASS``, then one per column plan, in
    dispatch order, for its leaf and fused prefix, then one per eager
    operator from ``expire_base`` on, charged by the batch's first
    expiration pass).  Per-tuple runners charge the block after each
    sample to ``PER_TUPLE``.  :meth:`sample` folds every slot into its
    histogram, so one ``phase_seconds`` observation is one sampled batch.

    **Lazy registration.**  Building a query registers nothing: op labels,
    instruments and certificate bounds are resolved on the first
    :meth:`sample` (a flush takes one), once per driver.

    **State sample.**  Per-operator depth beside its CST8xx certificate
    bound, expiration lag, totals and the result-view size.  Gauges hold
    the last sample, ``*_peak`` gauges the high-water mark and the
    ``state_tuples`` histogram the trajectory (count / mean / max); gauges
    sum under the sharded merge, so totals decompose across shards.
    ``expiration_lag{op}`` is the furthest a lazily purged operator's
    oldest stored ``exp`` was seen trailing the clock — the memory Section
    5.4.2's lazy interval trades for time.  It is 0 without a scan for
    eagerly expired operators and for every operator under NT, whose
    negative tuples delete each stored tuple at its ``exp``.
    """

    ROWS, VIEW_PURGE, PER_TUPLE, COLUMN, REPLAY, PASS = range(6)

    def __init__(self, compiled, column_leaves) -> None:
        self._compiled = compiled
        self._column_leaves = column_leaves
        self.expire_base = self.PASS + 1 + len(column_leaves)
        self.acc = [0.0] * (self.expire_base + len(compiled.expire_ops))
        #: Whether the next batch is the sampled one.
        self.timed = True
        #: ``acc`` from the sampled batch's entry until its first pass has
        #: run, else None.
        self.pass_acc = None
        #: Driver event count at the last sample.
        self.sampled_at = 0
        #: ``(acc slot, timer)`` pairs, resolved by the first sample.
        self._timers: list | None = None

    def _register(self) -> None:
        """Label every operator and register every instrument: one
        ``op_process_seconds`` timer per operator (so every export names
        every operator, charged or not), the phase, pass and expire timers,
        and the state gauges with each operator's certificate bound."""
        from ..analysis.bounds import attach_certificate
        from .strategies import Mode

        compiled = self._compiled
        registry = compiled.metrics
        labels = {}
        for index, node in enumerate(compiled.root.walk()):
            # A stable id (walk index plus class name: shard replicas of
            # one plan produce label-identical registries that merge
            # exactly) and the Section 5.2 pattern the cost model slices by.
            op = compiled.op_for(node)
            kind = type(op).__name__
            pattern = str(compiled.annotated.pattern_of(node))
            labels[id(op)] = {"op": f"{index}:{kind}", "kind": kind,
                              "pattern": pattern}
            registry.timer("op_process_seconds", **labels[id(op)])
        phases = ["rows", "view_purge", "per_tuple"]
        if self._column_leaves:  # "rows" stays: the column loop's fallback
            phases += ["column", "replay"]
        timers = [(slot, registry.timer("phase_seconds", phase=phase))
                  for slot, phase in enumerate(phases)]
        timers.append((self.PASS, registry.timer("expiration_pass_seconds")))
        timers += [(self.PASS + 1 + i,
                    registry.timer("op_process_seconds", **labels[id(leaf)]))
                   for i, leaf in enumerate(self._column_leaves)]
        timers += [(self.expire_base + i,
                    registry.timer("op_expire_seconds", **labels[id(op)]))
                   for i, op in enumerate(compiled.expire_ops)]
        self._timers = timers

        bounds: dict[int, float] = {}
        for entry in attach_certificate(compiled).entries:
            if (entry.op is not None and entry.buffer is not None
                    and entry.size is not None and entry.size < math.inf):
                bounds[id(entry.op)] = bounds.get(id(entry.op), 0.0) + entry.size
        scan_lag = compiled.config.mode is not Mode.NT
        lazy = {id(op) for op in compiled.lazy_ops}
        eager = {id(op) for op in compiled.expire_ops}
        #: (op, depth gauge, lag gauge or None, buffers to read the lag off)
        self._ops = []
        for op in compiled.ops.values():
            if id(op) in bounds:
                registry.gauge("op_state_bound", **labels[id(op)]).set(
                    bounds[id(op)])
            lag, buffers = None, ()
            if id(op) in lazy or id(op) in eager:
                lag = registry.gauge("expiration_lag", **labels[id(op)])
                if scan_lag and id(op) in lazy:
                    buffers = tuple(b for _label, b in op.state_buffers()
                                    if b is not None)
            self._ops.append((op, registry.gauge("op_state_tuples",
                                                 **labels[id(op)]),
                              lag, buffers))
        self._total = registry.gauge("state_tuples_total")
        self._peak = registry.gauge("state_tuples_peak")
        self._trajectory = registry.histogram("state_tuples")
        #: *Stored* results: 0 for a state view (answers enumerate it).
        self._view_size = registry.gauge("view_results")
        self._view_peak = registry.gauge("view_results_peak")

    def sample(self, driver) -> None:
        """Fold the sampled batch's clock deltas into their histograms,
        read every operator's depth (and lag) at the driver's clock, and
        make the next batch the sampled one."""
        timers = self._timers
        if timers is None:
            self._register()
            timers = self._timers
        acc = self.acc
        for slot, timer in timers:
            if acc[slot]:
                timer.add(acc[slot])
                acc[slot] = 0.0
        self.sampled_at = driver._events_processed
        self.timed = True
        now = driver.now
        total = 0
        for op, depth, lag, buffers in self._ops:
            size = op.state_size()
            depth.set(size)
            total += size
            if buffers:
                # next_expiry(-inf) is the oldest stored exp, expired
                # garbage included; boundary queries charge no touches.
                lag.set_max(now - min(b.next_expiry(-math.inf)
                                      for b in buffers))
        self._total.set(total)
        self._peak.set_max(total)
        self._trajectory.observe(total)
        results = len(self._compiled.view)
        self._view_size.set(results)
        self._view_peak.set_max(results)

    def flush(self, driver, elapsed: float | None) -> MetricsRegistry:
        """:meth:`Driver.flush_metrics`: exact totals, fallback counts,
        the run timer when given, one final sample.  Idempotent."""
        registry = self._compiled.metrics
        if elapsed is not None:
            registry.timer("run_seconds").add(elapsed)
        registry.gauge("events_processed").set(driver._events_processed)
        registry.gauge("tuples_arrived").set(driver._tuples_arrived)
        for reason, n in driver.batch_fallbacks.items():
            total = registry.counter("batch_fallback_total", reason=reason)
            total.inc(n - total.value)
        self.sample(driver)
        return registry


def run_summary(registry: MetricsRegistry) -> str:
    """The measured tail of explain's ``-- metrics:`` footer: phase shares
    of the batch loops, worst expiration lag, peak state against the
    certificate's bound.  Empty until a state sample exists."""
    if not any(h.count for h in registry.find("state_tuples")):
        return ""
    parts = []
    phases = [p for p in registry.find("phase_seconds") if p.count]
    busy = sum(p.total for p in phases)
    if busy:
        parts.append("phases " + " ".join(
            f"{p.labels['phase']} {p.total / busy:.0%}" for p in phases))
    lags = registry.find("expiration_lag")
    if lags:
        worst = max(lags, key=lambda gauge: gauge.value)
        parts.append(f"worst expiration lag {worst.value:g} "
                     f"({worst.labels['op']})")
    bound = sum(g.value for g in registry.find("op_state_bound"))
    parts.append(f"state peak {registry.value('state_tuples_peak'):g}"
                 f" / bound {bound:g}")
    return "; " + "; ".join(parts)


# ---------------------------------------------------------------------------
# JSON export and schema validation
# ---------------------------------------------------------------------------

def metrics_document(registry: MetricsRegistry,
                     run_info: Mapping[str, object] | None = None) -> dict:
    """The versioned export document for ``--metrics-out``."""
    return {
        "schema": METRICS_SCHEMA,
        "run": dict(run_info or {}),
        "metrics": registry.snapshot(),
    }


def write_metrics_json(path: str, registry: MetricsRegistry,
                       run_info: Mapping[str, object] | None = None) -> int:
    """Write the export document to ``path``; returns the series count."""
    document = metrics_document(registry, run_info)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")
    return len(document["metrics"])


def _json_default(value):
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    raise TypeError(f"not JSON-serializable: {value!r}")  # pragma: no cover


def validate_metrics_document(document: dict) -> int:
    """Schema check for an exported metrics document.

    Raises :class:`ValueError` naming the first offending record; returns
    the number of metric series on success.  This is the check the CI
    telemetry job gates on — hand-rolled so the repo needs no jsonschema
    dependency.
    """
    if not isinstance(document, dict):
        raise ValueError("metrics document must be a JSON object")
    if document.get("schema") != METRICS_SCHEMA:
        raise ValueError(f"unknown metrics schema {document.get('schema')!r} "
                         f"(expected {METRICS_SCHEMA!r})")
    if not isinstance(document.get("run"), dict):
        raise ValueError("metrics document needs a 'run' object")
    metrics = document.get("metrics")
    if not isinstance(metrics, list):
        raise ValueError("metrics document needs a 'metrics' list")
    for index, record in enumerate(metrics):
        where = f"metrics[{index}]"
        if not isinstance(record, dict):
            raise ValueError(f"{where}: not an object")
        name = record.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}: missing metric name")
        kind = record.get("type")
        if kind not in _TYPES:
            raise ValueError(f"{where} ({name}): unknown type {kind!r}")
        labels = record.get("labels")
        if not isinstance(labels, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in labels.items()):
            raise ValueError(f"{where} ({name}): labels must map str -> str")
        if kind in ("counter", "gauge"):
            if not isinstance(record.get("value"), (int, float)):
                raise ValueError(f"{where} ({name}): needs a numeric 'value'")
        else:  # histogram
            for field in ("count", "total"):
                if not isinstance(record.get(field), (int, float)):
                    raise ValueError(
                        f"{where} ({name}): needs a numeric {field!r}")
            if record["count"] < 0:
                raise ValueError(f"{where} ({name}): negative count")
    return len(metrics)
