"""The FIFO negation (``NegationFifoOp``): WKS × WKS negation structure.

Three layers of evidence that choosing the structure by update pattern
changes nothing observable:

* a differential property — fed the same per-side-FIFO scripts, the FIFO
  operator and the general ``NegationOp`` agree on every output (in order),
  every counter, ``state_size``, ``answer_size``, per-value counts and the
  next expiry;
* the compiler's choice — UPA over two WKS inputs builds the FIFO operator
  and names it in the ``-- program:`` footer; every other case keeps the
  general one and says why;
* the Definition-1 oracle — Query 3 text, with selections below the minus,
  count windows on both sides and late events released by a
  ``ReorderBuffer``, checked after every event by ``repro.testing``.

Plus the guard: a negative tuple is an ``ExecutionError`` naming the
operator and input.  Arrivals reach the operator in FIFO order per side
because the driver rejects out-of-order timestamps
(``tests/test_executor.py``, ``tests/test_batched.py``).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    ExecutionError,
    Mode,
    Schema,
    Tuple,
)
from repro.core.metrics import Counters
from repro.lang.catalog import SourceCatalog
from repro.lang.compiler import compile_query
from repro.operators import NegationFifoOp, NegationOp
from repro.streams.reorder import ReorderBuffer
from repro.testing import check_plan
from repro.workloads.traffic import TRAFFIC_SCHEMA

VV = Schema(["v", "w"])

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Differential: FIFO negation ≡ general negation on per-side-FIFO input
# ---------------------------------------------------------------------------

@st.composite
def fifo_scripts(draw):
    """Steps at non-decreasing clocks: ``("expire", now)`` or ``("arrive",
    side, tuples, now)``.  Each side's ``exp`` never decreases (WKS); the
    sides' lifetimes are drawn equal or unequal, clock steps may be zero
    (equal timestamps, within and across sides) and integral lifetimes put
    W1 and W2 expirations on one ``exp``."""
    lives = [draw(st.lists(st.sampled_from([2.0, 3.0, 4.0, 6.0]),
                           min_size=1, max_size=2))] * 2
    if draw(st.booleans()):
        lives[1] = draw(st.lists(st.sampled_from([2.0, 3.0, 4.0, 6.0]),
                                 min_size=1, max_size=2))
    now = 0.0
    last_exp = [0.0, 0.0]
    steps = []
    for _ in range(draw(st.integers(1, 30))):
        now += draw(st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 0.5]))
        if draw(st.integers(0, 2)) == 0:
            steps.append(("expire", now))
            continue
        side = draw(st.integers(0, 1))
        tuples = []
        for _ in range(draw(st.integers(1, 3))):
            exp = max(last_exp[side], now + draw(st.sampled_from(lives[side])))
            last_exp[side] = exp
            tuples.append(Tuple((draw(st.integers(0, 2)),
                                 draw(st.integers(0, 1))), now, exp))
        steps.append(("arrive", side, tuples, now))
    steps.append(("expire", now + 10.0))
    return steps


def _observe(op, counters, now):
    return (op.state_size(), op.answer_size(), op.next_expiry(now),
            [op.counts_for(v) for v in range(3)], counters.snapshot(),
            op.clock)


@SETTINGS
@given(steps=fifo_scripts(), batched=st.booleans())
def test_fifo_negation_matches_the_general_operator(steps, batched):
    fifo_counters, general_counters = Counters(), Counters()
    fifo = NegationFifoOp(VV, 0, 0, counters=fifo_counters)
    general = NegationOp(VV, 0, 0, counters=general_counters)
    for step in steps:
        if step[0] == "expire":
            now = step[1]
            assert fifo.expire(now) == general.expire(now)
        else:
            _kind, side, tuples, now = step
            lists = [tuples] if batched else [[t] for t in tuples]
            for arrivals in lists:
                assert (fifo.process_batch(side, arrivals, now)
                        == general.process_batch(side, arrivals, now))
        assert (_observe(fifo, fifo_counters, now)
                == _observe(general, general_counters, now))
    assert fifo.state_size() == 0 and fifo.answer_size() == 0


def test_expiry_ties_across_sides_follow_arrival_order():
    """W2 arrived first at the shared exp: it leaves first and readmits the
    W1 tuple, which then leaves silently — the heaps' pop order."""
    counters = Counters()
    op = NegationFifoOp(VV, 0, 0, counters=counters)
    assert op.process(1, Tuple((1, 0), 0.0, 5.0), 0.0) == []
    assert op.process(0, Tuple((1, 1), 0.0, 5.0), 0.0) == []
    assert op.expire(5.0) == [Tuple((1, 1), 5.0, 5.0)]
    assert op.state_size() == 0 and op.answer_size() == 0
    assert counters.results_produced == 1


# ---------------------------------------------------------------------------
# Guard: negatives are typed errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
def test_negative_tuple_is_an_execution_error(side):
    counters = Counters()
    op = NegationFifoOp(VV, 0, 0, counters=counters)
    op.process(side, Tuple((1, 0), 0.0, 5.0), 0.0)
    with pytest.raises(ExecutionError,
                       match=f"NegationFifoOp .* on input {side}"):
        op.process_batch(side, [Tuple((2, 0), 1.0, 6.0),
                                Tuple((1, 0), 0.0, 5.0, sign=-1)], 1.0)
    # Charged per tuple up to and including the offender.
    assert counters.tuples_processed == 3
    assert counters.negatives_processed == 1


def _catalog():
    catalog = SourceCatalog()
    for link in range(2):
        catalog.add_stream(f"link{link}", TRAFFIC_SCHEMA)
    return catalog


Q3 = "SELECT * FROM link0 [RANGE 20] MINUS link1 [RANGE 20] ON src_ip"


# ---------------------------------------------------------------------------
# The compiler's choice, and the footer that names it
# ---------------------------------------------------------------------------

class TestStructureChoice:
    def test_upa_wks_inputs_build_the_fifo_negation(self):
        query = ContinuousQuery(compile_query(Q3, _catalog()),
                                ExecutionConfig(mode=Mode.UPA))
        op = query.compiled.op_for(query.plan)
        assert type(op) is NegationFifoOp
        assert op in query.compiled.expire_ops
        assert query.compiled.describe().endswith(
            " | negation: FIFO (WKS × WKS)")
        assert "-- program: " in query.explain()
        assert "negation: FIFO (WKS × WKS)" in query.explain()

    def test_str_input_keeps_the_general_negation(self):
        text = ("SELECT * FROM (SELECT * FROM link0 [RANGE 20] MINUS "
                "link1 [RANGE 20] ON src_ip) AS a MINUS link1 [RANGE 20] "
                "ON src_ip")
        query = ContinuousQuery(compile_query(text, _catalog()),
                                ExecutionConfig(mode=Mode.UPA))
        assert type(query.compiled.op_for(query.plan)) is NegationOp
        assert query.compiled.describe().endswith(
            " | negation: FIFO (WKS × WKS) | negation: general (STR input)")

    def test_wk_input_keeps_the_general_negation(self):
        text = ("SELECT * FROM (SELECT DISTINCT src_ip FROM link0 "
                "[RANGE 20]) AS a MINUS link1 [RANGE 20] ON src_ip")
        query = ContinuousQuery(compile_query(text, _catalog()),
                                ExecutionConfig(mode=Mode.UPA))
        assert type(query.compiled.op_for(query.plan)) is NegationOp
        assert query.compiled.describe().endswith(
            " | negation: general (WK input)")

    @pytest.mark.parametrize("config,why", [
        (dict(mode=Mode.NT), "NT"),
    ], ids=["nt"])
    def test_negative_tuple_styles_keep_the_general_negation(self, config,
                                                             why):
        query = ContinuousQuery(compile_query(Q3, _catalog()),
                                ExecutionConfig(**config))
        assert type(query.compiled.op_for(query.plan)) is NegationOp
        assert query.compiled.describe().endswith(
            f" | negation: general ({why})")


# ---------------------------------------------------------------------------
# Definition 1 oracle over Query 3 text
# ---------------------------------------------------------------------------

def _traffic(n, seed, streams=("link0", "link1"), ips=4):
    """Arrivals over a few source IPs (so negation counts collide often),
    with repeated and fractional timestamps."""
    rng = random.Random(seed)
    events, ts = [], 0.0
    for i in range(n):
        ts += rng.choice([0.0, 0.5, 1.0, 2.0])
        events.append(Arrival(ts, rng.choice(streams), (
            rng.randrange(5), rng.choice(["ftp", "telnet", "http"]),
            rng.randrange(100), f"10.0.0.{rng.randrange(ips)}",
            f"10.1.0.{i % 3}")))
    return events


#: case -> (query text, streams fed).
ORACLE_CASES = {
    "query3": (Q3, ("link0", "link1")),
    "selections-below": (
        "SELECT * FROM (SELECT * FROM link0 [RANGE 20] WHERE protocol != "
        "'http') AS a MINUS (SELECT * FROM link1 [RANGE 20] WHERE bytes > "
        "30) AS b ON src_ip", ("link0", "link1")),
    "unequal-ranges": (
        "SELECT * FROM link0 [RANGE 12] MINUS link1 [RANGE 30] ON src_ip",
        ("link0", "link1")),
    "count-windows": (
        "SELECT * FROM link0 [ROWS 9] MINUS link0 [ROWS 4] ON src_ip",
        ("link0",)),
    "count-windows-selections-below": (
        "SELECT * FROM (SELECT * FROM link0 [ROWS 12] WHERE protocol = "
        "'telnet') AS a MINUS (SELECT * FROM link0 [ROWS 5] WHERE protocol "
        "!= 'telnet') AS b ON src_ip", ("link0",)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_query3_text_matches_the_oracle(case, seed):
    text, streams = ORACLE_CASES[case]
    plan = compile_query(text, _catalog())
    compiled = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA)).compiled
    assert any(type(op) is NegationFifoOp for op in compiled.ops.values())
    events = _traffic(300, seed=seed, streams=streams)
    assert check_plan(plan, events, Mode.UPA) == 300


def test_late_events_through_a_reorder_buffer_match_the_oracle():
    rng = random.Random(33)
    events = _traffic(300, seed=33)
    late = [Arrival(e.ts + rng.choice([0.0, 0.0, 1.5, 3.0]), e.stream,
                    e.values) for e in events]
    late.sort(key=lambda e: e.ts + rng.random() * 4.0)  # out of order
    released = list(ReorderBuffer(slack=6.0).reorder(late))
    assert len(released) == 300
    assert [e.ts for e in released] == sorted(e.ts for e in released)
    plan = compile_query(Q3, _catalog())
    assert check_plan(plan, released, Mode.UPA) == 300
