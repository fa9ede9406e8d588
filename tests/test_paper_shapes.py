"""Deterministic shape assertions: the paper's qualitative claims.

These tests do not measure wall time (noisy in CI); they assert on *state
touches*, which are deterministic for a fixed trace, and pin the relative
behaviour the paper reports: who wins, how DIRECT degrades with window size,
that δ's state stays bounded, that partitioned STR storage pays for
premature expirations but stays below NT, and that the cost model ranks
Query 5's two plans as measured work does.  They replay the experiments'
traces (``benchmarks/experiments.py``).
"""

import dataclasses

import pytest

from repro import ContinuousQuery, ExecutionConfig, Mode
from repro.core.cost import Catalog, CostModel
from repro.workloads import (query1, query2, query3, query4, query5_pullup,
                             query5_pushdown)

from benchmarks.experiments import BENCH_TRAFFIC, make_generator, trace_for


def touches(plan, events, **cfg):
    query = ContinuousQuery(plan, ExecutionConfig(**cfg))
    result = query.run(iter(events))
    return result.touches_per_tuple()


class TestDirectDegradesWithWindow:
    """Figure 10's shape: DIRECT's per-tuple work grows superlinearly with
    the window while UPA's stays an order of magnitude below."""

    def test_query1_telnet(self):
        gen = make_generator()
        ratios = {}
        for window in (100, 200, 400):
            events = trace_for(window)
            plan = query1(gen, window, "telnet")
            direct = touches(plan, events, mode=Mode.DIRECT)
            upa = touches(query1(gen, window, "telnet"), events,
                          mode=Mode.UPA)
            ratios[window] = direct / upa
        # The gap widens with the window and exceeds 10x well before the
        # paper's largest configurations.
        assert ratios[100] < ratios[200] < ratios[400]
        assert ratios[400] > 10

    def test_query2_distinct(self):
        gen = make_generator()
        events = trace_for(200)
        plan = query2(gen, 200)
        assert touches(plan, events, mode=Mode.DIRECT) > \
            10 * touches(query2(gen, 200), events, mode=Mode.UPA)


class TestUpaBeatsNt:
    """UPA must do less deterministic work than NT on the paper queries
    (NT processes every tuple twice)."""

    @pytest.mark.parametrize("plan_fn", [query2, query4],
                             ids=["query2", "query4"])
    def test_touches(self, plan_fn):
        gen = make_generator()
        events = trace_for(200)
        nt = touches(plan_fn(gen, 200), events, mode=Mode.NT)
        upa = touches(plan_fn(gen, 200), events, mode=Mode.UPA)
        assert upa < nt


class TestDeltaSpaceBound:
    """Section 5.3.1: δ stores at most twice its output; the standard
    operator additionally stores the whole input window."""

    def test_state_sizes(self):
        gen = make_generator()
        window = 300
        events = trace_for(window)
        delta_query = ContinuousQuery(query2(gen, window),
                                      ExecutionConfig(mode=Mode.UPA))
        std_query = ContinuousQuery(query2(gen, window),
                                    ExecutionConfig(mode=Mode.DIRECT))
        delta_query.run(iter(events))
        std_query.run(iter(events))
        delta_state = delta_query.compiled.state_size()
        std_state = std_query.compiled.state_size()
        n_distinct = len(delta_query.answer())
        assert delta_state <= 2 * n_distinct
        # The standard operator keeps the input window too (lazily purged),
        # so its state must dominate δ's by roughly the live window size.
        assert std_state > delta_state + window / 2


class TestStrStorageRegimes:
    """Section 5.3.2: partitioned STR storage pays a premature-deletion
    scan per premature expiration, so its work grows with their frequency
    — yet stays below NT's, which processes every expiration twice, in
    both regimes (E4's sweep finds the same in wall time)."""

    def test_premature_frequency_drives_the_cost(self):
        upa, nt = {}, {}
        for overlap in (1.0, 0.0):
            config = dataclasses.replace(BENCH_TRAFFIC, ip_overlap=overlap)
            gen = make_generator(config)
            events = trace_for(200, config)
            upa[overlap] = touches(query3(gen, 200), events, mode=Mode.UPA)
            nt[overlap] = touches(query3(gen, 200), events, mode=Mode.NT)
        # Full overlap (many premature expirations) costs UPA more than
        # disjoint IP pools (none) do.
        assert upa[1.0] > upa[0.0]
        assert upa[1.0] < nt[1.0] and upa[0.0] < nt[0.0]


class TestMoreTuplesForNt:
    """Section 2.3.1: 'twice as many tuples must be processed' under NT."""

    def test_tuple_counts(self):
        gen = make_generator()
        events = trace_for(200)
        counts = {}
        for mode in (Mode.NT, Mode.UPA):
            query = ContinuousQuery(query1(gen, 200, "telnet"),
                                    ExecutionConfig(mode=mode))
            query.run(iter(events))
            counts[mode] = query.counters.negatives_processed
        assert counts[Mode.NT] > 0
        assert counts[Mode.UPA] == 0  # negation-free UPA plan: no negatives


class TestCostModelRanksLikeMeasurement:
    """E8: the per-unit-time cost model orders Figure 6's two Query 5 plans
    as their measured work does (the plans answer different queries
    wherever a source IP repeats on the ftp side; only the ordering of
    their work is checked)."""

    def test_query5_plans(self):
        window = 400
        gen = make_generator()
        model = CostModel(Catalog(
            distinct_counts={(f"link{i}", attr): est
                             for i in range(4)
                             for attr, est in
                             gen.estimated_distincts(window).items()},
            premature_frequency=0.5,
        ))
        rows = []
        for tag, plan_fn in (("pull-up", query5_pullup),
                             ("push-down", query5_pushdown)):
            plan = plan_fn(gen, window)
            rows.append((tag, model.estimate(plan).total,
                         touches(plan, trace_for(window), mode=Mode.UPA)))
        predicted = [r[0] for r in sorted(rows, key=lambda r: r[1])]
        measured = [r[0] for r in sorted(rows, key=lambda r: r[2])]
        assert predicted == measured
