"""Tests for the traffic workload, the paper queries, and trace IO."""

import collections

import pytest

from repro import (Arrival, ContinuousQuery, ExecutionConfig, Mode,
                   WorkloadError, annotate)
from repro.core.patterns import STR, WK
from repro.testing import check_plan
from repro.workloads import (
    TRAFFIC_SCHEMA,
    TrafficConfig,
    TrafficTraceGenerator,
    query1,
    query2,
    query3,
    query4,
    query5_pullup,
    query5_pushdown,
    read_trace,
    write_trace,
)


class TestTrafficGenerator:
    def test_deterministic_given_seed(self):
        a = list(TrafficTraceGenerator(TrafficConfig(seed=5)).events(100))
        b = list(TrafficTraceGenerator(TrafficConfig(seed=5)).events(100))
        assert [(e.ts, e.stream, e.values) for e in a] == \
            [(e.ts, e.stream, e.values) for e in b]

    def test_different_seeds_differ(self):
        a = list(TrafficTraceGenerator(TrafficConfig(seed=1)).events(50))
        b = list(TrafficTraceGenerator(TrafficConfig(seed=2)).events(50))
        assert [(e.ts, e.values) for e in a] != [(e.ts, e.values) for e in b]

    def test_timestamps_non_decreasing(self):
        events = list(TrafficTraceGenerator().events(200))
        assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))

    def test_schema_matches(self):
        event = next(TrafficTraceGenerator().events(1))
        assert len(event.values) == len(TRAFFIC_SCHEMA)

    def test_links_all_used(self):
        cfg = TrafficConfig(n_links=3, seed=9)
        events = list(TrafficTraceGenerator(cfg).events(300))
        assert {e.stream for e in events} == {"link0", "link1", "link2"}

    def test_telnet_roughly_10x_ftp(self):
        events = list(TrafficTraceGenerator().events(5000))
        protocols = collections.Counter(e.values[1] for e in events)
        assert 6 < protocols["telnet"] / protocols["ftp"] < 16

    def test_per_link_rate_about_one_per_unit(self):
        cfg = TrafficConfig(n_links=4, mean_interarrival=1.0, seed=3)
        events = list(TrafficTraceGenerator(cfg).events(4000))
        span = events[-1].ts - events[0].ts
        per_link = 4000 / 4 / span
        assert 0.8 < per_link < 1.25

    def test_zero_overlap_pools_disjoint(self):
        cfg = TrafficConfig(ip_overlap=0.0, n_links=2, seed=4)
        events = list(TrafficTraceGenerator(cfg).events(2000))
        by_link = collections.defaultdict(set)
        for e in events:
            by_link[e.stream].add(e.values[3])
        assert not (by_link["link0"] & by_link["link1"])

    def test_full_overlap_pools_shared(self):
        cfg = TrafficConfig(ip_overlap=1.0, n_links=2, seed=4)
        events = list(TrafficTraceGenerator(cfg).events(2000))
        by_link = collections.defaultdict(set)
        for e in events:
            by_link[e.stream].add(e.values[3])
        assert by_link["link0"] & by_link["link1"]

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            TrafficConfig(n_links=0)
        with pytest.raises(WorkloadError):
            TrafficConfig(ip_overlap=1.5)
        with pytest.raises(WorkloadError):
            TrafficConfig(protocol_mix={"ftp": 0.5})

    def test_stream_def_bounds_checked(self):
        gen = TrafficTraceGenerator(TrafficConfig(n_links=2))
        with pytest.raises(WorkloadError):
            gen.stream_def(5, 100)

    def test_estimated_distincts(self):
        gen = TrafficTraceGenerator(TrafficConfig(n_src_ips=50))
        est = gen.estimated_distincts(window_size=10)
        assert est["src_ip"] == 10  # capped by live tuples
        est = gen.estimated_distincts(window_size=10_000)
        assert est["src_ip"] == 50


class TestPaperQueries:
    def setup_method(self):
        self.gen = TrafficTraceGenerator(TrafficConfig(seed=2))

    def test_query_patterns(self):
        assert annotate(query1(self.gen, 100)).output_pattern is WK
        assert annotate(query2(self.gen, 100)).output_pattern is WK
        assert annotate(query3(self.gen, 100)).output_pattern is STR
        assert annotate(query4(self.gen, 100)).output_pattern is WK
        assert annotate(query5_pullup(self.gen, 100)).output_pattern is STR
        assert annotate(query5_pushdown(self.gen, 100)).output_pattern is STR

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA])
    @pytest.mark.parametrize("plan_fn", [query5_pullup, query5_pushdown])
    def test_query5_rewritings_each_match_their_oracle(self, plan_fn, mode):
        """Figure 6's two plans are two queries (DESIGN.md, "Negation
        moves only across key-unique inputs"): each is held to its own
        Definition-1 snapshot after every event, on a trace whose six
        source IPs repeat on every link."""
        gen = TrafficTraceGenerator(TrafficConfig(n_links=3, n_src_ips=6,
                                                  seed=2))
        events = list(gen.events(300))
        assert check_plan(plan_fn(gen, 20), events, mode) == len(events)

    def test_query5_rewritings_differ_where_a_source_ip_repeats(self):
        """Equation 1 on one source IP with one link0, one link1 and two
        ftp link2 tuples: (link0 − link1) ⋈ link2 keeps max(1 − 1, 0)·2 = 0
        results, (link0 ⋈ link2) − link1 keeps max(1·2 − 1, 0) = 1."""
        row = (1.0, "ftp", 100, "10.0.0.1", "10.1.0.1")
        events = [Arrival(float(ts), f"link{link}", row)
                  for ts, link in ((1, 0), (2, 1), (3, 2), (4, 2))]
        pullup, pushdown = (
            ContinuousQuery(plan_fn(self.gen, 100)).run(events).answer()
            for plan_fn in (query5_pullup, query5_pushdown))
        assert sum(pullup.values()) == 1
        assert not pushdown

    @pytest.mark.parametrize("plan_fn,modes", [
        (query1, (Mode.NT, Mode.DIRECT, Mode.UPA)),
        (query2, (Mode.NT, Mode.DIRECT, Mode.UPA)),
        (query4, (Mode.NT, Mode.DIRECT, Mode.UPA)),
        (query3, (Mode.NT, Mode.UPA)),
    ])
    def test_strategies_agree_on_answers(self, plan_fn, modes):
        events = list(self.gen.events(1200))
        answers = []
        for mode in modes:
            plan = plan_fn(self.gen, 60)
            query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
            answers.append(query.run(list(events)).answer())
        assert all(a == answers[0] for a in answers[1:])


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        gen = TrafficTraceGenerator(TrafficConfig(seed=6))
        events = list(gen.events(120))
        path = tmp_path / "trace.tsv"
        assert write_trace(path, events) == 120
        loaded = list(read_trace(path))
        assert [(e.ts, e.stream, e.values) for e in loaded] == \
            [(e.ts, e.stream, e.values) for e in events]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1.0\tlink0\tonly\tthree\n")
        with pytest.raises(WorkloadError, match="expected 7 fields"):
            list(read_trace(path))

    def test_blank_lines_skipped(self, tmp_path):
        gen = TrafficTraceGenerator()
        events = list(gen.events(3))
        path = tmp_path / "trace.tsv"
        write_trace(path, events)
        path.write_text(path.read_text() + "\n\n")
        assert len(list(read_trace(path))) == 3
