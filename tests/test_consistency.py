"""Cross-strategy consistency: every strategy must satisfy Definition 1.

For each plan shape we replay a deterministic random event sequence and
compare the materialized answer with the relational oracle after *every
single event*, under every applicable strategy.
These are the integration tests that pin the three execution strategies to
identical semantics.
"""

import pytest

from repro import (ContinuousQuery, ExecutionConfig, Mode, Predicate, count,
                   from_window)
from repro.testing import check_plan
from repro.workloads import TrafficConfig, TrafficTraceGenerator
from repro.workloads.queries import query5_pushdown

from conftest import (
    ALL_MODES,
    STRICT_MODES,
    assert_matches_oracle,
    random_arrivals,
    stream_pair,
)

EVENTS = random_arrivals(n=200, seed=3)
BURSTY = random_arrivals(n=200, seed=11, vmax=3)


def even():
    return Predicate(("v",), lambda vals: vals[0] % 2 == 0, "v is even", 0.5)


@pytest.mark.parametrize("mode", ALL_MODES)
class TestNegationFreePlans:
    def test_selection(self, mode):
        s0, _ = stream_pair()
        assert_matches_oracle(from_window(s0).where(even()).build(),
                              EVENTS, mode)

    def test_projection_after_selection(self, mode):
        s0, _ = stream_pair()
        plan = from_window(s0).where(even()).project("v").build()
        assert_matches_oracle(plan, EVENTS, mode)

    def test_union(self, mode):
        s0, s1 = stream_pair()
        assert_matches_oracle(from_window(s0).union(from_window(s1)).build(),
                              EVENTS, mode)

    def test_join(self, mode):
        s0, s1 = stream_pair()
        assert_matches_oracle(
            from_window(s0).join(from_window(s1), on="v").build(),
            EVENTS, mode)

    def test_join_with_selections(self, mode):
        s0, s1 = stream_pair()
        plan = (from_window(s0).where(even())
                .join(from_window(s1).where(even()), on="v").build())
        assert_matches_oracle(plan, EVENTS, mode)

    def test_intersect(self, mode):
        s0, s1 = stream_pair()
        assert_matches_oracle(
            from_window(s0).intersect(from_window(s1)).build(), BURSTY, mode)

    def test_distinct(self, mode):
        s0, _ = stream_pair()
        assert_matches_oracle(from_window(s0).distinct().build(),
                              BURSTY, mode)

    def test_distinct_over_union(self, mode):
        s0, s1 = stream_pair()
        plan = from_window(s0).union(from_window(s1)).distinct().build()
        assert_matches_oracle(plan, BURSTY, mode)

    def test_distinct_then_join(self, mode):
        """The paper's Query 4 shape."""
        s0, s1 = stream_pair()
        plan = (from_window(s0).distinct()
                .join(from_window(s1).distinct(), on="v").build())
        assert_matches_oracle(plan, BURSTY, mode)

    def test_groupby_count(self, mode):
        s0, _ = stream_pair()
        assert_matches_oracle(
            from_window(s0).group_by(["v"], [count()]).build(), EVENTS, mode)

    def test_join_above_join(self, mode):
        s0, s1 = stream_pair()
        s2 = stream_pair()[0].__class__("s2", s0.schema, s0.window)
        inner = from_window(s0).join(from_window(s1), on="v")
        plan = inner.join(from_window(s2), on="l_v", right_on="v").build()
        assert_matches_oracle(plan, random_arrivals(n=200, n_streams=3,
                                                    seed=5), mode)


@pytest.mark.parametrize("mode", STRICT_MODES)
class TestStrictPlans:
    def test_negation(self, mode):
        s0, s1 = stream_pair()
        assert_matches_oracle(
            from_window(s0).minus(from_window(s1), on="v").build(),
            BURSTY, mode)

    def test_negation_with_selection_below(self, mode):
        s0, s1 = stream_pair()
        plan = (from_window(s0)
                .minus(from_window(s1).where(even()), on="v").build())
        assert_matches_oracle(plan, BURSTY, mode)

    def test_join_above_negation(self, mode):
        """The paper's Query 5 push-down shape."""
        s0, s1 = stream_pair()
        s2 = s0.__class__("s2", s0.schema, s0.window)
        plan = (from_window(s0).minus(from_window(s1), on="v")
                .join(from_window(s2), on="v").build())
        assert_matches_oracle(plan, random_arrivals(n=200, n_streams=3,
                                                    seed=7, vmax=3), mode)

    def test_groupby_above_negation(self, mode):
        s0, s1 = stream_pair()
        plan = (from_window(s0).minus(from_window(s1), on="v")
                .group_by(["v"], [count()]).build())
        assert_matches_oracle(plan, BURSTY, mode)


@pytest.mark.parametrize("mode", [Mode.UPA], ids=["partitioned"])
class TestStrStorageSchemes:
    """UPA's STR result storage (partitioned by ``exp``, Section 5.3.2)
    under premature expirations."""

    def test_negation(self, mode):
        s0, s1 = stream_pair()
        plan = from_window(s0).minus(from_window(s1), on="v").build()
        assert_matches_oracle(plan, BURSTY, mode)

    def test_join_above_negation(self, mode):
        s0, s1 = stream_pair()
        s2 = s0.__class__("s2", s0.schema, s0.window)
        plan = (from_window(s0).minus(from_window(s1), on="v")
                .join(from_window(s2), on="v").build())
        assert_matches_oracle(plan, random_arrivals(n=200, n_streams=3,
                                                    seed=13, vmax=3), mode)

    def test_selection_above_negation(self, mode):
        s0, s1 = stream_pair()
        plan = (from_window(s0).minus(from_window(s1), on="v")
                .where(even()).build())
        assert_matches_oracle(plan, BURSTY, mode)

    def test_query5_pushdown_full_overlap(self, mode):
        """Query 5 push-down (a join above the negation) on traffic whose
        links share every source IP, so negation results often expire
        before their ``exp`` and the join above hears their negatives."""
        gen = TrafficTraceGenerator(TrafficConfig(n_links=3, n_src_ips=12,
                                                  ip_overlap=1.0, seed=5))
        events = list(gen.events(600))
        plan = query5_pushdown(gen, 20)
        assert check_plan(plan, events, mode) == len(events)
        query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
        query.run(iter(events))
        assert query.counters.negatives_processed > 0


class TestPartitionCounts:
    """Correctness must not depend on the number of partitions."""

    @pytest.mark.parametrize("n_partitions", [1, 2, 7, 50])
    def test_join_any_partition_count(self, n_partitions):
        s0, s1 = stream_pair()
        s2 = s0.__class__("s2", s0.schema, s0.window)
        inner = from_window(s0).join(from_window(s1), on="v")
        plan = inner.join(from_window(s2), on="l_v", right_on="v").build()
        assert_matches_oracle(plan, random_arrivals(n=150, n_streams=3,
                                                    seed=17), Mode.UPA,
                              n_partitions=n_partitions)


class TestLazyIntervals:
    """Correctness must not depend on how lazily joins purge state."""

    @pytest.mark.parametrize("interval", [0.1, 2.0, 50.0])
    def test_join_any_interval(self, interval):
        s0, s1 = stream_pair()
        plan = from_window(s0).join(from_window(s1), on="v").build()
        assert_matches_oracle(plan, EVENTS, Mode.UPA, lazy_interval=interval)
