"""Batched ≡ per-tuple equivalence over the E1–E5 query/strategy matrix.

The micro-batch execution path (``run(..., batch=N)``) must be *exactly*
transparent: same subscriber output stream (insertions and negative tuples,
in order), same final answer multiset, and the same number of expirations —
for every experimental query under every strategy it supports.  These are
plain pytest tests (no benchmark fixture) so they can run anywhere.
"""

from __future__ import annotations

import pytest

from repro import ContinuousQuery, ExecutionConfig, Mode
from repro.workloads import query1, query2, query3, query4

from .common import make_generator, trace_for

WINDOW = 40
#: The ftp⋈ftp join is so selective it emits nothing on the small trace;
#: it gets a larger window so the non-vacuousness guard has teeth.
FTP_WINDOW = 80

_STANDARD = [("nt", ExecutionConfig(mode=Mode.NT)),
             ("direct", ExecutionConfig(mode=Mode.DIRECT)),
             ("upa", ExecutionConfig(mode=Mode.UPA))]

#: (case id, plan factory, config, window) — one row per E1–E5 cell.
CASES = (
    [(f"e1-query1-ftp-{label}", lambda gen, w: query1(gen, w, "ftp"),
      cfg, FTP_WINDOW)
     for label, cfg in _STANDARD]
    + [(f"e2-query1-telnet-{label}",
        lambda gen, w: query1(gen, w, "telnet"), cfg, WINDOW)
       for label, cfg in _STANDARD]
    + [(f"e3-query2-src-{label}",
        lambda gen, w: query2(gen, w, pairs=False), cfg, WINDOW)
       for label, cfg in _STANDARD]
    + [(f"e3-query2-pairs-{label}",
        lambda gen, w: query2(gen, w, pairs=True), cfg, WINDOW)
       for label, cfg in _STANDARD]
    + [("e4-query3-nt", query3, ExecutionConfig(mode=Mode.NT), WINDOW),
       ("e4-query3-upa", query3, ExecutionConfig(mode=Mode.UPA), WINDOW)]
    + [(f"e5-query4-{label}", query4, cfg, WINDOW)
       for label, cfg in _STANDARD]
)


def _run(plan_factory, config: ExecutionConfig, window: float,
         batch: int | None):
    """One full replay; returns (output stream, answer, expirations)."""
    plan = plan_factory(make_generator(), window)
    query = ContinuousQuery(plan, config)
    outputs = []
    query.subscribe(lambda t, now: outputs.append((t, now)))
    query.run(iter(trace_for(window)), batch=batch)
    return outputs, query.answer(), query.counters.expirations


@pytest.mark.parametrize("name,plan_factory,config,window", CASES,
                         ids=[c[0] for c in CASES])
@pytest.mark.parametrize("batch", [2, 64])
def test_batched_matches_per_tuple(name, plan_factory, config, window,
                                   batch):
    base_out, base_answer, base_exp = _run(plan_factory, config, window,
                                           None)
    out, answer, exp = _run(plan_factory, config, window, batch)
    assert out == base_out
    assert answer == base_answer
    assert exp == base_exp
    assert base_out, "trace produced no output — test would be vacuous"
