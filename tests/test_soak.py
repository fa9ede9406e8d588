"""Soak tests: the five paper queries over long traces, strategies agreeing.

These replay a few thousand realistic traffic tuples — an order of magnitude
more than the unit tests — and assert that every applicable strategy
materializes the identical final answer.  They catch state-management bugs
that only show up after many window turnovers (index leaks, partition-epoch
mix-ups, stale heap entries).
"""

import pytest

from repro import ContinuousQuery, ExecutionConfig, Mode
from repro.workloads import (
    TrafficConfig,
    TrafficTraceGenerator,
    query1,
    query2,
    query3,
    query4,
    query5_pullup,
    query5_pushdown,
)

WINDOW = 80
N_EVENTS = 3_000


@pytest.fixture(scope="module")
def workload():
    gen = TrafficTraceGenerator(TrafficConfig(n_links=4, n_src_ips=100,
                                              seed=1234))
    return gen, list(gen.events(N_EVENTS))


def answers_for(plan_fn, workload, configs):
    gen, events = workload
    answers, produced = [], []
    for config in configs:
        query = ContinuousQuery(plan_fn(gen, WINDOW), config)
        result = query.run(iter(events))
        answers.append(result.answer())
        produced.append(result.counters.results_produced)
        # Sanity: state must not have leaked past the live window contents.
        state = query.compiled.state_size()
        assert state < 25 * WINDOW, f"state leak? {state} tuples retained"
    return answers, produced


ALL = [ExecutionConfig(mode=m) for m in (Mode.NT, Mode.DIRECT, Mode.UPA)]
STRICT = [ExecutionConfig(mode=Mode.NT), ExecutionConfig(mode=Mode.UPA)]


class TestSoak:
    @pytest.mark.parametrize("plan_fn", [
        lambda g, w: query1(g, w, "ftp"),
        lambda g, w: query1(g, w, "telnet"),
        query2,
        query4,
    ], ids=["q1-ftp", "q1-telnet", "q2", "q4"])
    def test_negation_free(self, plan_fn, workload):
        answers, produced = answers_for(plan_fn, workload, ALL)
        assert answers[0] == answers[1] == answers[2]
        # Non-degeneracy: the run produced results even if the final
        # instant happens to be empty (e.g. the sparse ftp join).
        assert all(n > 0 for n in produced)

    @pytest.mark.parametrize("plan_fn", [query3], ids=["q3"])
    def test_negation(self, plan_fn, workload):
        answers, produced = answers_for(plan_fn, workload, STRICT)
        assert answers[0] == answers[1]
        assert answers[0] and all(n > 0 for n in produced)

    @pytest.mark.parametrize("plan_fn", [query5_pullup, query5_pushdown],
                             ids=["q5-pullup", "q5-pushdown"])
    def test_query5_rewritings(self, plan_fn, workload):
        answers, produced = answers_for(plan_fn, workload, STRICT)
        assert answers[0] == answers[1]
        assert all(n > 0 for n in produced)
