"""Scenario tests lifted directly from the paper's figures and examples."""

from collections import Counter

import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    NRR,
    RelationUpdate,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
    from_window,
)

V = Schema(["v"])


def stream(name, window):
    return StreamDef(name, V, TimeWindow(window))


class TestFigure2DuplicateElimination:
    """Figure 2: when the result tuple with value x expires from the output,
    it is replaced with another x tuple that has not yet expired — even
    though y tuples arrived in between."""

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_replacement_keeps_answer_stable(self, mode):
        plan = from_window(stream("s", 10)).distinct().build()
        query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
        ex = query.executor
        ex.process_event(Arrival(0, "s", ("x",)))
        ex.process_event(Arrival(2, "s", ("y",)))
        ex.process_event(Arrival(4, "s", ("x",)))   # the younger x
        ex.process_event(Arrival(6, "s", ("y",)))
        assert query.answer() == Counter({("x",): 1, ("y",): 1})
        # The first x (exp 10) expires; the x from ts=4 (exp 14) covers.
        ex.process_event(Tick(11))
        assert query.answer() == Counter({("x",): 1, ("y",): 1})
        # At 14 the second x is gone too; y (ts=6, exp=16) survives alone.
        ex.process_event(Tick(14.5))
        assert query.answer() == Counter({("y",): 1})


class TestFigure5JoinNonFifoExpiry:
    """Figure 5: a join result generated *later* can expire *earlier*, which
    is exactly why join output is weak rather than weakest non-monotonic."""

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.DIRECT, Mode.UPA])
    def test_later_result_expires_first(self, mode):
        plan = (from_window(stream("w1", 10))
                .join(from_window(stream("w2", 10)), on="v").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
        ex = query.executor
        # Old w1 tuple joins with late-arriving t: result expires when the
        # w1 constituent does (early).
        ex.process_event(Arrival(0, "w1", ("t",)))
        ex.process_event(Arrival(8, "w2", ("t",)))   # result exp = 10
        # Fresh w1 tuple joins with u: result expires later (at 19).
        ex.process_event(Arrival(9, "w1", ("u",)))
        ex.process_event(Arrival(9.5, "w2", ("u",)))
        assert query.answer() == Counter({("t", "t"): 1, ("u", "u"): 1})
        # The t-result was generated first but the u-result outlives it.
        ex.process_event(Tick(10))
        assert query.answer() == Counter({("u", "u"): 1})
        ex.process_event(Tick(19))
        assert query.answer() == Counter()


class TestNegationPrematureExpiration:
    """Section 3.2: negation results can expire before their exp timestamps
    when a matching tuple arrives on the second window."""

    @pytest.mark.parametrize("mode", [Mode.NT, Mode.UPA],
                             ids=["nt-partitioned", "upa-partitioned"])
    def test_w2_arrival_expels_result(self, mode):
        plan = (from_window(stream("w1", 10))
                .minus(from_window(stream("w2", 10)), on="v").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=mode))
        ex = query.executor
        ex.process_event(Arrival(0, "w1", ("x",)))
        assert query.answer() == Counter({("x",): 1})
        ex.process_event(Arrival(2, "w2", ("x",)))   # premature expiration
        assert query.answer() == Counter()
        # When the w2 tuple expires at 12, w1's x is gone too (exp 10):
        ex.process_event(Tick(13))
        assert query.answer() == Counter()

    def test_w2_expiry_revives_result(self):
        plan = (from_window(stream("w1", 10))
                .minus(from_window(stream("w2", 4)), on="v").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        ex = query.executor
        ex.process_event(Arrival(0, "w1", ("x",)))
        ex.process_event(Arrival(1, "w2", ("x",)))
        assert query.answer() == Counter()
        ex.process_event(Tick(6))   # w2 tuple expired at 5; w1 x lives to 10
        assert query.answer() == Counter({("x",): 1})


class TestStockTickerNRR:
    """Section 4.1's financial-ticker example: updating the symbol table
    must not retract previously reported quotes (Definition 2)."""

    QUOTES = Schema(["symbol", "price"])
    SYMBOLS = Schema(["sym", "company"])

    def make_query(self):
        nrr = NRR("symbols", self.SYMBOLS, [("ACME", "Acme Corp")])
        quotes = StreamDef("quotes", self.QUOTES, TimeWindow(100))
        plan = (from_window(quotes)
                .join_nrr(nrr, on="symbol", rel_on="sym").build())
        return ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA)), nrr

    def test_delisting_keeps_prior_quotes(self):
        query, _ = self.make_query()
        ex = query.executor
        ex.process_event(Arrival(1, "quotes", ("ACME", 42)))
        assert sum(query.answer().values()) == 1
        ex.process_event(RelationUpdate(2, "symbols", "delete",
                                        ("ACME", "Acme Corp")))
        # The previously returned quote is NOT deleted...
        assert sum(query.answer().values()) == 1
        # ...but new quotes for the delisted symbol produce nothing.
        ex.process_event(Arrival(3, "quotes", ("ACME", 43)))
        assert sum(query.answer().values()) == 1

    def test_new_symbol_not_joined_retroactively(self):
        query, _ = self.make_query()
        ex = query.executor
        ex.process_event(Arrival(1, "quotes", ("NEWCO", 10)))
        assert sum(query.answer().values()) == 0
        ex.process_event(RelationUpdate(2, "symbols", "insert",
                                        ("NEWCO", "New Co")))
        # No attempt to join the new symbol with prior stream tuples.
        assert sum(query.answer().values()) == 0
        ex.process_event(Arrival(3, "quotes", ("NEWCO", 11)))
        assert sum(query.answer().values()) == 1

    def test_results_expire_with_the_stream_tuple(self):
        query, _ = self.make_query()
        ex = query.executor
        ex.process_event(Arrival(1, "quotes", ("ACME", 42)))
        ex.process_event(Tick(101))   # quote expires from its window
        assert sum(query.answer().values()) == 0


class TestRetroactiveRelationContrast:
    """The same scenario with an ordinary relation behaves retroactively —
    the semantic distinction Section 4.1 introduces NRRs to express."""

    def test_relation_delete_retracts_prior_results(self):
        from repro import Relation
        quotes = StreamDef("quotes", Schema(["symbol", "price"]),
                           TimeWindow(100))
        rel = Relation("symbols", Schema(["sym", "company"]),
                       [("ACME", "Acme Corp")])
        plan = (from_window(quotes)
                .join_relation(rel, on="symbol", rel_on="sym").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        ex = query.executor
        ex.process_event(Arrival(1, "quotes", ("ACME", 42)))
        assert sum(query.answer().values()) == 1
        ex.process_event(RelationUpdate(2, "symbols", "delete",
                                        ("ACME", "Acme Corp")))
        assert sum(query.answer().values()) == 0  # retroactively retracted

    def test_relation_insert_joins_prior_stream_tuples(self):
        from repro import Relation
        quotes = StreamDef("quotes", Schema(["symbol", "price"]),
                           TimeWindow(100))
        rel = Relation("symbols", Schema(["sym", "company"]))
        plan = (from_window(quotes)
                .join_relation(rel, on="symbol", rel_on="sym").build())
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        ex = query.executor
        ex.process_event(Arrival(1, "quotes", ("NEWCO", 10)))
        ex.process_event(RelationUpdate(2, "symbols", "insert",
                                        ("NEWCO", "New Co")))
        assert sum(query.answer().values()) == 1  # retroactively joined
