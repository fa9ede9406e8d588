"""Tests for the rewrite rules and cost-based plan choice."""

from collections import Counter

import pytest

from repro import (
    DupElim,
    Join,
    Negation,
    NRR,
    NRRJoin,
    Project,
    Rename,
    Schema,
    Select,
    StreamDef,
    TimeWindow,
    WindowScan,
    annotate,
    attr_equals,
)
from repro.core.cost import Catalog
from repro.core.optimizer import Optimizer, RewriteOptions
from repro.lang.parser import parse

V = Schema(["v", "w"])


def scan(name="s", window=10):
    return WindowScan(StreamDef(name, V, TimeWindow(window)))


def optimizer(**catalog_kwargs):
    return Optimizer(Catalog(**catalog_kwargs))


def link_compiler():
    from repro import QueryCompiler, SourceCatalog

    catalog = SourceCatalog()
    for name in ("link0", "link1"):
        catalog.add_stream(name, Schema(["src_ip", "protocol", "bytes"]))
    return QueryCompiler(catalog)


def natural_query1():
    """Query 1 as a user writes it: both selections above the join, on
    the join's prefixed output names."""
    return link_compiler().compile(parse(
        "SELECT * FROM link0 [RANGE 100] JOIN link1 [RANGE 100] "
        "ON link0.src_ip = link1.src_ip "
        "WHERE l_protocol = 'ftp' AND r_protocol = 'ftp'"))


def distinct_keys(name="c"):
    """δ(π_v scan): at most one live tuple per ``v``, the input a negation
    may move across a join on ``v`` without changing multiplicities."""
    return DupElim(Project(scan(name), ["v"]))


def signatures(plans):
    from repro.core.optimizer import _signature
    return {_signature(p) for p in plans}


class TestSelectionPushdown:
    def test_pushes_through_join_left(self):
        # l_w only exists in the join output (both inputs have a w); w is
        # an unprefixed attribute of the left input alone.
        prefixed = Select(Join(scan("a"), scan("b"), "v", "v"),
                          attr_equals("l_w", 1))
        plain = Select(Join(scan("a"),
                            WindowScan(StreamDef("b", Schema(["x", "y"]),
                                                 TimeWindow(10))),
                            "v", "x"), attr_equals("w", 1))
        for plan in (prefixed, plain):
            pushed = [p for p in optimizer().candidates(plan)
                      if isinstance(p, Join) and isinstance(p.left, Select)]
            assert pushed, "selection was not pushed below the join"
            assert pushed[0].left.predicate.attrs == ("w",)

    def test_pushed_plan_is_cheaper(self):
        plan = Select(Join(scan("a"),
                           WindowScan(StreamDef("b", Schema(["x", "y"]),
                                                TimeWindow(10))),
                           "v", "x"), attr_equals("w", 1, selectivity=0.1))
        best = optimizer().optimize(plan)
        assert isinstance(best.plan, Join)  # selection no longer at the root

    def test_pushes_through_prefixing_join_from_query_text(self):
        """The natural Query-1 text filters on the join's *output* names
        (``l_protocol``); the push-down maps them back through
        ``Join.prefixes`` and lands on the subquery form's plan."""
        compiler = link_compiler()
        natural = natural_query1()
        subquery = compiler.compile(parse(
            "SELECT * FROM (SELECT * FROM link0 [RANGE 100] "
            "WHERE protocol = 'ftp') AS a JOIN (SELECT * FROM link1 "
            "[RANGE 100] WHERE protocol = 'ftp') AS b "
            "ON a.src_ip = b.src_ip"))

        def shape(plan):
            pushed = getattr(plan, "predicate", None)
            return (type(plan).__name__, pushed and pushed.attrs,
                    *map(shape, plan.children))

        ranked = optimizer().rank(natural)
        assert shape(ranked[0].plan) == shape(subquery)
        assert len(ranked) == 3  # both σ above, one pushed, both pushed
        for candidate in ranked:
            assert candidate.plan.schema == natural.schema

        # Same answers: the right-hand predicate reads the right input's
        # own columns after the move.
        from repro import Arrival, ContinuousQuery, ExecutionConfig, Tick
        events = [Arrival(float(i), f"link{i % 2}",
                          (i % 3, ("ftp", "http", "ftp")[i % 5 % 3], i))
                  for i in range(300)] + [Tick(350.0)]

        def answer_at_250(plan):
            query = ContinuousQuery(plan, ExecutionConfig())
            query.run(events[:250])
            return query.answer()

        want = answer_at_250(natural)
        assert want and answer_at_250(ranked[0].plan) == want
        assert answer_at_250(subquery) == want

    def test_negation_right_side_protected(self):
        """Pushing a selection into negation's right input changes what is
        subtracted — the optimizer must only push into the left."""
        plan = Select(Negation(scan("a"), scan("b"), "v"),
                      attr_equals("w", 1))
        for candidate in optimizer().candidates(plan):
            for node in candidate.walk():
                if isinstance(node, Negation):
                    assert not isinstance(node.right, Select)


class TestNegationMovement:
    def make_pushdown_plan(self):
        neg = Negation(scan("a"), scan("b"), "v")
        return Join(neg, distinct_keys(), "v", "v")

    def test_pull_up_generated(self):
        candidates = optimizer().candidates(self.make_pushdown_plan())
        pulled = [p for p in candidates if isinstance(p, Negation)]
        assert pulled, "negation pull-up rewriting missing"
        # In the pulled-up plan the join is below the negation and both of
        # its inputs are negation-free.
        joined = pulled[0].left
        assert isinstance(joined, Join)
        assert not any(isinstance(n, Negation) for n in joined.walk())

    def test_push_down_inverts_pull_up(self):
        pulled = [p for p in optimizer().candidates(self.make_pushdown_plan())
                  if isinstance(p, Negation)][0]
        back = [p for p in optimizer().candidates(pulled)
                if isinstance(p, Join)
                and any(isinstance(n, Negation) for n in p.walk())]
        assert back, "push-down did not regenerate the original shape"

    def test_disabled_by_options(self):
        opt = Optimizer(options=RewriteOptions(move_negation=False))
        candidates = opt.candidates(self.make_pushdown_plan())
        assert not any(isinstance(p, Negation) for p in candidates)


class TestJoinRotation:
    def make_chain(self):
        a = WindowScan(StreamDef("a", Schema(["k", "x"]), TimeWindow(10)))
        b = WindowScan(StreamDef("b", Schema(["k2", "y"]), TimeWindow(10)))
        c = WindowScan(StreamDef("c", Schema(["k3", "z"]), TimeWindow(10)))
        return Join(Join(a, b, "k", "k2"), c, "k2", "k3")

    def test_rotation_generated_and_schema_preserving(self):
        from repro.core.optimizer import _join_rotate
        plan = self.make_chain()
        (rotated,) = _join_rotate(plan)
        assert isinstance(rotated.right, Join)
        assert rotated.schema == plan.schema

    def test_rotation_reachable_with_larger_budget(self):
        opt = Optimizer(options=RewriteOptions(max_candidates=256))
        plan = self.make_chain()
        rotated = [p for p in opt.candidates(plan)
                   if isinstance(p, Join) and isinstance(p.right, Join)]
        assert rotated

    def test_clashing_schemas_not_rotated(self):
        from repro.core.optimizer import _join_rotate
        # All streams share attribute names → prefixes → no rotation.
        plan = Join(Join(scan("a"), scan("b"), "v", "v"),
                    scan("c"), "l_v", "v")
        assert _join_rotate(plan) == []


class TestDupElimPushdown:
    def test_generated(self):
        plan = DupElim(Join(scan("a"), scan("b"), "v", "v"))
        candidates = optimizer().candidates(plan)
        pushed = [p for p in candidates
                  if isinstance(p, Join) and isinstance(p.left, DupElim)
                  and isinstance(p.right, DupElim)]
        assert pushed


def dedup_twice():
    """δ(δ(π_v scan)): the outer δ stores every tuple to remove nothing."""
    return DupElim(DupElim(Project(scan("a"), ["v"])))


def dedup_renamed():
    """δ(ρ(δ(π_v scan))): a rename keeps its input duplicate-free."""
    return DupElim(Rename(DupElim(Project(scan("a"), ["v"])), ["k"]))


class TestRedundantDupElim:
    @pytest.mark.parametrize("build", [dedup_twice, dedup_renamed],
                             ids=["δδ", "δρδ"])
    def test_single_dupelim_is_a_candidate_and_the_choice(self, build):
        plan = build()
        single = plan.child
        assert signatures([single]) <= signatures(
            optimizer().candidates(build()))
        chosen = optimizer().optimize(build()).plan
        assert signatures([chosen]) == signatures([single])
        assert sum(isinstance(n, DupElim) for n in chosen.walk()) == 1

    def test_disabled_by_options(self):
        opt = Optimizer(options=RewriteOptions(move_dupelim=False))
        assert len(opt.candidates(dedup_twice())) == 1

    def test_dupelim_over_other_input_kept(self):
        plan = DupElim(Rename(Project(scan("a"), ["v"]), ["k"]))
        assert len(optimizer().candidates(plan)) == 1


class TestConstraints:
    def test_nrr_join_never_below_negation(self):
        """Every candidate must keep R/NRR-joins over non-STR input."""
        nrr = NRR("n", Schema(["k", "m"]))
        plan = Join(Negation(scan("a"), scan("b"), "v"),
                    NRRJoin(scan("c"), nrr, "v", "k"), "v", "v")
        for candidate in optimizer().candidates(plan):
            annotate(candidate)  # raises PlanError if the constraint broke


class TestRanking:
    def test_rank_is_sorted(self):
        plan = Select(Join(scan("a"), scan("b"), "v", "v"),
                      attr_equals("l_v", 1))
        ranked = optimizer().rank(plan)
        costs = [r.total_cost for r in ranked]
        assert costs == sorted(costs)
        assert len(ranked) >= 1

    def test_optimize_returns_cheapest(self):
        plan = Select(Join(scan("a"), scan("b"), "v", "v"),
                      attr_equals("l_v", 1))
        opt = optimizer()
        assert opt.optimize(plan).total_cost == opt.rank(plan)[0].total_cost

    def test_candidates_deduplicated(self):
        plan = Join(scan("a"), scan("b"), "v", "v")
        candidates = optimizer().candidates(plan)
        assert len(signatures(candidates)) == len(candidates)

    def test_max_candidates_cap(self):
        opt = Optimizer(options=RewriteOptions(max_candidates=2))
        plan = Select(Join(scan("a"), scan("b"), "v", "v"),
                      attr_equals("l_v", 1))
        assert len(opt.candidates(plan)) <= 2


# ---------------------------------------------------------------------------
# Rewrite soundness: every candidate answers as the original plan does
# ---------------------------------------------------------------------------

def _traffic_plan(build):
    from repro.workloads import queries
    from repro.workloads.traffic import TrafficTraceGenerator

    return build(queries, TrafficTraceGenerator())


def _chain():
    return TestJoinRotation().make_chain()


#: name -> (plan factory, negation key or None, candidate budget).  A plan
#: with a negation is compared per value of its negation attribute as it
#: appears in the output: Equation 1 fixes how many answers each key has,
#: not which of the left input's tuples they are.
SOUNDNESS_CASES = {
    "query1-natural": (natural_query1, None, 64),
    "query3": (lambda: _traffic_plan(lambda q, g: q.query3(g, 10)),
               "src_ip", 64),
    "query5-pullup": (lambda: _traffic_plan(
        lambda q, g: q.query5_pullup(g, 10)), "l_src_ip", 64),
    "query5-pushdown": (lambda: _traffic_plan(
        lambda q, g: q.query5_pushdown(g, 10)), "l_src_ip", 64),
    "select-join-prefixed": (lambda: Select(
        Join(scan("a"), scan("b"), "v", "v"), attr_equals("l_w", 1)),
        None, 64),
    "select-join-plain": (lambda: Select(
        Join(scan("a"), WindowScan(StreamDef("b", Schema(["x", "y"]),
                                             TimeWindow(10))), "v", "x"),
        attr_equals("w", 1)), None, 64),
    "select-negation": (lambda: Select(
        Negation(scan("a"), scan("b"), "v"), attr_equals("w", 1)),
        "v", 64),
    "select-negation-key": (lambda: Select(
        Negation(scan("a"), scan("b"), "v"), attr_equals("v", 1)),
        "v", 64),
    "negation-join": (TestNegationMovement().make_pushdown_plan, "l_v", 64),
    # Repeated keys on c: max(n_a - n_b, 0)·n_c answers below the join,
    # max(n_a·n_c - n_b, 0) above it, so the negation must not move.
    "negation-join-repeated-keys": (lambda: Join(
        Negation(scan("a"), scan("b"), "v"), scan("c"), "v", "v"),
        "l_v", 64),
    "join-negation-repeated-keys": (lambda: Negation(
        Join(scan("a"), scan("c"), "v", "v"), scan("b"), "l_v", "v"),
        "l_v", 64),
    "join-negation": (lambda: Join(
        distinct_keys("a"), Negation(scan("b"), scan("c"), "v"), "v", "v"),
        "r_v", 64),
    "join-chain": (_chain, None, 256),
    "dupelim-join": (lambda: DupElim(Join(scan("a"), scan("b"), "v", "v")),
                     None, 64),
    "dupelim-dupelim": (dedup_twice, None, 64),
    "dupelim-rename-dupelim": (dedup_renamed, None, 64),
}


def _soundness_trace(plan, n=160, seed=0):
    """A short trace over every stream ``plan`` reads: small value domains
    so keys repeat and negations subtract, ties and gaps in time, then a
    tick that expires everything."""
    import random

    from repro import Arrival, Tick

    rng = random.Random(seed)
    streams = {leaf.stream.name: leaf.stream.schema.fields
               for leaf in plan.leaves()}
    names = sorted(streams)
    events, ts = [], 0.0
    for _ in range(n):
        ts += rng.choice([0.0, 0.5, 1.0])
        name = rng.choice(names)
        values = tuple(rng.choice(["ftp", "telnet"]) if field == "protocol"
                       else rng.randrange(3) for field in streams[name])
        events.append(Arrival(ts, name, values))
    return events + [Tick(ts + 50.0)]


def _per_key(answer, schema, key):
    if key is None:
        return answer
    index = schema.index_of(key)
    counts = Counter()
    for values, n in answer.items():
        counts[values[index]] += n
    return counts


class TestCandidatesMatchTheOracle:
    """Rewrite soundness (Definition 1): every plan the optimizer emits
    for a query, run by the engine, answers what the reference evaluator
    computes for the *original* plan, after every event of a trace."""

    @pytest.mark.parametrize("name", sorted(SOUNDNESS_CASES))
    def test_every_candidate_answers_as_the_original(self, name):
        from repro import ContinuousQuery, ExecutionConfig, ReferenceEvaluator

        build, key, budget = SOUNDNESS_CASES[name]
        original = build()
        events = _soundness_trace(original)
        oracle = ReferenceEvaluator()
        expected = []
        for event in events:
            oracle.observe(event)
            expected.append(_per_key(oracle.evaluate(original, event.ts),
                                     original.schema, key))
        opt = Optimizer(options=RewriteOptions(max_candidates=budget))
        candidates = opt.candidates(build())
        for candidate in candidates:
            assert candidate.schema == original.schema, candidate
            query = ContinuousQuery(candidate, ExecutionConfig())
            for step, (event, want) in enumerate(zip(events, expected)):
                query.executor.process_event(event)
                got = _per_key(query.answer(), candidate.schema, key)
                assert got == want, (
                    f"{name}: candidate {candidate.describe()} diverges "
                    f"after event {step} ({event!r})")
