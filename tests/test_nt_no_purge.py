"""Under NT nothing is purged by timestamp, and nothing needs to be.

Section 2.3.1: under the negative tuple approach every expiration starts as
a window's negative tuple, and the negatives derived from it delete each
stored tuple it produced, at that tuple's own ``exp``.  So no state buffer
ever holds a tuple the clock has reached, and the lazy purges the other
strategies schedule would find nothing: an NT program has no lazily
maintained operator.  Checked here on random traces over every stateful NT
shape, per tuple and in batches: after every event or batch no buffer
holds a due tuple, and the answer equals the Definition 1 oracle's.  (Hash
buffers, which only NT builds, cannot be purged by timestamp at all.)  The
last class pins what NT's hot loops no longer call.
"""

import cProfile
import pstats
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    AggregateSpec,
    Arrival,
    ContinuousQuery,
    CountWindow,
    DupElim,
    ExecutionConfig,
    GroupBy,
    Intersect,
    Join,
    Mode,
    Negation,
    Project,
    ReferenceEvaluator,
    Relation,
    RelationJoin,
    RelationUpdate,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    Union,
    WindowScan,
)
from repro.engine.views import BufferView
from repro.operators.dupelim import DupElimStandardOp
from repro.operators.join import JoinOp
from repro.operators.negation import NegationOp
from repro.operators.relation_join import RelationJoinOp
from repro.workloads import TrafficConfig, TrafficTraceGenerator
from repro.workloads.queries import query4

V = Schema(["v"])
KW = Schema(["k", "w"])
ROWS = ((0, 0), (1, 1))
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: Per-tuple closure, or micro-batches of that many events.
DRIVES = ("event", 1, 7, 64)


def scan(name, window):
    return WindowScan(StreamDef(name, V, window))


def windows(w0, w1):
    return scan("s0", TimeWindow(w0)), scan("s1", TimeWindow(w1))


#: Every stateful operator NT runs, each fed by window negatives: shape ->
#: plan factory over two window sizes (a fresh relation per call).
SHAPES = {
    "join": lambda w0, w1: Join(*windows(w0, w1), "v", "v"),
    "intersect": lambda w0, w1: Intersect(*windows(w0, w1)),
    "distinct": lambda w0, w1: DupElim(Union(*windows(w0, w1))),
    "negation": lambda w0, w1: Negation(*windows(w0, w1), "v"),
    "group-by": lambda w0, w1: GroupBy(
        Union(*windows(w0, w1)), ["v"],
        [AggregateSpec("count", None, "n"), AggregateSpec("sum", "v", "s")]),
    "relation-join": lambda w0, w1: Join(
        RelationJoin(scan("s0", TimeWindow(w0)), Relation("r", KW, ROWS),
                     "v", "k"),
        scan("s1", TimeWindow(w1)), "v", "v"),
    "count-window": lambda w0, w1: DupElim(Project(Join(
        scan("s0", CountWindow(w0)), scan("s0", CountWindow(w1)), "v", "v"),
        ["l_v"])),
}


@st.composite
def cases(draw):
    """A shape, its two window sizes and a trace for it: small domains
    (duplicates and zero gaps are common), relation updates interleaved
    for the relation join, one stream for the count windows, and ticks
    that expire part, then all, of the state."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    sizes = draw(st.tuples(*[st.sampled_from([2, 5])] * 2))
    rows = Counter(ROWS)
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
                         min_size=4, max_size=50))
    events, ts = [], 1.0
    for gap in gaps:
        ts += gap
        if shape == "relation-join" and draw(st.integers(0, 3)) == 0:
            row = (draw(st.integers(0, 2)), draw(st.integers(0, 1)))
            op = "delete" if rows[row] and draw(st.booleans()) else "insert"
            rows[row] += 1 if op == "insert" else -1
            events.append(RelationUpdate(ts, "r", op, row))
            continue
        stream = ("s0" if shape == "count-window"
                  else draw(st.sampled_from(["s0", "s1"])))
        events.append(Arrival(ts, stream, (draw(st.integers(0, 2)),)))
    return shape, sizes, events + [Tick(ts + 3.0), Tick(ts + 10.0)]


def lazily_maintained(compiled):
    """The lazy participants by the rule UPA and DIRECT follow: joins and
    intersections, standard δ, and relation joins."""
    return [op for op in compiled.ops.values()
            if isinstance(op, (JoinOp, DupElimStandardOp, RelationJoinOp))]


def stored(compiled):
    """Every tuple held by operator state or the result view."""
    for op in compiled.ops.values():
        for _label, buffer in op.state_buffers():
            if buffer is not None:
                yield from buffer
        if isinstance(op, NegationOp):
            for side in (op._live1, op._live2):
                for tuples in side.values():
                    yield from tuples
    if isinstance(compiled.view, BufferView):
        yield from compiled.view.buffer


@pytest.mark.parametrize("drive", DRIVES, ids=str)
@SETTINGS
@given(case=cases())
def test_nt_state_never_trails_the_clock(drive, case):
    shape, sizes, events = case
    plan = SHAPES[shape](*sizes)
    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.NT))
    assert query.compiled.lazy_ops == []
    oracle = ReferenceEvaluator()
    step = 1 if drive == "event" else drive
    for start in range(0, len(events), step):
        chunk = events[start:start + step]
        if drive == "event":
            query.executor.process_event(chunk[0])
        else:
            query.executor.process_batch(chunk)
        for event in chunk:
            oracle.observe(event)
        now = query.executor.now
        due = [t for t in stored(query.compiled) if t.exp <= now]
        assert not due, (shape, start, now, due)
        assert query.answer() == oracle.evaluate(plan), (shape, start)


# -- who is lazily maintained ---------------------------------------------------


#: Shapes whose NT pipeline the lazy rule would give a participant.
STORING = {"join", "intersect", "distinct", "relation-join", "count-window"}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_nt_program_has_no_lazy_participant(shape):
    query = ContinuousQuery(SHAPES[shape](2, 5), ExecutionConfig(mode=Mode.NT))
    assert bool(lazily_maintained(query.compiled)) == (shape in STORING)
    assert query.compiled.lazy_ops == []
    assert "lazy=0" in query.compiled.describe().split()
    assert not query.executor._lazy_check


@pytest.mark.parametrize("mode", [Mode.UPA, Mode.DIRECT],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_other_strategies_keep_their_lazy_participants(shape, mode):
    if mode is Mode.DIRECT and shape in ("negation", "relation-join"):
        pytest.skip("DIRECT runs negation-free, non-retroactive plans only")
    compiled = ContinuousQuery(SHAPES[shape](2, 5),
                               ExecutionConfig(mode=mode)).compiled
    assert compiled.lazy_ops == lazily_maintained(compiled)


# -- what NT's hot loops no longer call ------------------------------------------


class TestNtCallBudget:
    """A batched Query-4 run under NT builds each negative once (no
    ``negate``), matches deletions inline (no ``matches_deletion``),
    and its operators read the sign and build projections directly.  The remaining ``is_negative``
    and ``with_values`` calls come from the driver's fused projection
    and the result view's ``apply``, which this budget does not cover."""

    AVOIDED = {("core/tuples.py", "negate"),
               ("core/tuples.py", "matches_deletion")}
    OUTSIDE_OPERATORS = {("core/tuples.py", "is_negative"),
                         ("core/tuples.py", "with_values")}

    def _profile(self):
        gen = TrafficTraceGenerator(TrafficConfig(n_src_ips=150, seed=42))
        events = list(gen.events(3000))
        query = ContinuousQuery(query4(gen, 100), ExecutionConfig(mode=Mode.NT))
        profiler = cProfile.Profile()
        result = profiler.runcall(query.run, events, batch=64)
        assert result.counters.negatives_processed > 0
        return pstats.Stats(profiler).stats

    @staticmethod
    def _where(filename: str) -> str:
        return "/".join(filename.replace("\\", "/").split("/")[-2:])

    def test_no_rebuilt_negatives_matches_or_timestamp_scans(self):
        stats = self._profile()
        called = {(self._where(f), name): counts[1]
                  for (f, _line, name), counts in stats.items()}
        assert not {key for key in self.AVOIDED if called.get(key)}
        assert called[("buffers/hashed.py", "delete")] > 0
        callers = {self._where(caller[0])
                   for (f, _line, name), entry in stats.items()
                   if (self._where(f), name) in self.OUTSIDE_OPERATORS
                   for caller in entry[4]}
        assert callers <= {"engine/driver.py", "engine/views.py"}
