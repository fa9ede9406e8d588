"""Direct unit tests for the physical operators (no engine involved)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ExecutionError, NRR, Relation, Schema, TimeWindow, Tuple
from repro.buffers import FifoBuffer, HashBuffer, ListBuffer, PartitionedBuffer
from repro.core.metrics import Counters
from repro.operators import (
    DupElimDeltaOp,
    DupElimStandardOp,
    GroupByOp,
    IntersectOp,
    JoinOp,
    NegationFifoOp,
    NegationOp,
    NRRJoinOp,
    ProjectOp,
    RelationJoinOp,
    SelectOp,
    UnionOp,
    WindowOp,
)
from repro.operators.base import PhysicalOperator
from repro.operators.stateless import PortOp

from conftest import all_subclasses

V = Schema(["v"])
VV = Schema(["v", "w"])


def t(v, ts, exp, sign=1):
    return Tuple((v,), ts, exp, sign)


class TestSelectOp:
    def test_filters_positives(self):
        op = SelectOp(V, lambda vals: vals[0] > 2)
        assert op.process(0, t(5, 1, 9), 1) == [t(5, 1, 9)]
        assert op.process(0, t(1, 2, 9), 2) == []

    def test_negatives_take_the_same_path(self):
        op = SelectOp(V, lambda vals: vals[0] > 2)
        neg = t(5, 1, 9, sign=-1)
        assert op.process(0, neg, 1) == [neg]
        assert op.process(0, t(1, 1, 9, sign=-1), 1) == []

    def test_advances_clock(self):
        op = SelectOp(V, lambda vals: True)
        op.process(0, t(1, 5, 9), 5)
        assert op.clock == 5


class TestProjectOp:
    def test_keeps_indices_and_timestamps(self):
        op = ProjectOp(Schema(["w"]), (1,))
        out = op.process(0, Tuple((1, "x"), 3, 7), 3)
        assert out == [Tuple(("x",), 3, 7)]

    def test_projected_negative_still_matches_downstream(self):
        op = ProjectOp(Schema(["w"]), (1,))
        pos = op.process(0, Tuple((1, "x"), 3, 7), 3)[0]
        neg = op.process(0, Tuple((1, "x"), 3, 7, -1), 3)[0]
        assert neg.values == pos.values and neg.exp == pos.exp
        assert neg.is_negative


class TestUnionOp:
    def test_forwards_both_inputs(self):
        op = UnionOp(V)
        assert op.process(0, t(1, 1, 5), 1) == [t(1, 1, 5)]
        assert op.process(1, t(2, 2, 6), 2) == [t(2, 2, 6)]


class TestWindowOp:
    def test_stamp_time_window(self):
        op = WindowOp(V, TimeWindow(10))
        stamped = op.stamp((1,), ts=5, clock=5)
        assert stamped.exp == 15

    def test_stamp_unbounded(self):
        op = WindowOp(V, None)
        assert op.stamp((1,), 5, 5).exp == float("inf")

    def test_materialized_emits_negatives(self):
        op = WindowOp(V, TimeWindow(10), materialize=True)
        tup = op.stamp((1,), 0, 0)
        op.process(0, tup, 0)
        assert op.state_size() == 1
        assert op.expire(9) == []
        negatives = op.expire(10)
        assert len(negatives) == 1 and negatives[0].is_negative
        assert op.state_size() == 0

    def test_direct_mode_stores_nothing(self):
        op = WindowOp(V, TimeWindow(10), materialize=False)
        op.process(0, op.stamp((1,), 0, 0), 0)
        assert op.state_size() == 0
        assert op.expire(100) == []


class TestJoinOp:
    def make(self):
        return JoinOp(VV, 0, 0, HashBuffer(lambda x: x.values[0]),
                      HashBuffer(lambda x: x.values[0]))

    def test_arrival_probes_other_side(self):
        op = self.make()
        assert op.process(0, t("a", 1, 11), 1) == []
        out = op.process(1, t("a", 2, 12), 2)
        assert len(out) == 1
        result = out[0]
        assert result.values == ("a", "a")
        assert result.exp == 11  # min of constituents
        assert result.ts == 2    # generation time

    def test_left_values_always_first(self):
        op = JoinOp(VV, 0, 0, HashBuffer(lambda x: x.values[0]),
                    HashBuffer(lambda x: x.values[0]))
        op.process(1, Tuple(("a",), 1, 11), 1)   # right side first
        out = op.process(0, Tuple(("a",), 2, 12), 2)
        assert out[0].values == ("a", "a")
        assert out[0].exp == 11

    def test_expired_state_not_probed(self):
        op = self.make()
        op.process(0, t("a", 1, 5), 1)
        assert op.process(1, t("a", 6, 16), 6) == []  # partner expired at 5

    def test_negative_deletes_and_cascades(self):
        op = self.make()
        op.process(0, t("a", 1, 11), 1)
        op.process(1, t("a", 2, 12), 2)
        out = op.process(0, t("a", 1, 11, sign=-1), 11)
        assert len(out) == 1 and out[0].is_negative
        assert out[0].values == ("a", "a") and out[0].exp == 11
        assert op.state_size() == 1  # only the right tuple remains

    def test_purge_discards_expired_state(self):
        # Timestamp purges maintain UPA and DIRECT state; NT's hash
        # buffers never get one.
        op = JoinOp(VV, 0, 0, ListBuffer(_first), ListBuffer(_first))
        op.process(0, t("a", 1, 5), 1)
        op.process(1, t("b", 2, 20), 2)
        op.purge(10)
        assert op.state_size() == 1


class TestIntersectOp:
    def make(self):
        return IntersectOp(V, HashBuffer(lambda x: x.values),
                           HashBuffer(lambda x: x.values))

    def test_emits_left_values_on_match(self):
        op = self.make()
        op.process(0, t("a", 1, 11), 1)
        out = op.process(1, t("a", 2, 12), 2)
        assert len(out) == 1
        assert out[0].values == ("a",) and out[0].exp == 11

    def test_no_match_no_output(self):
        op = self.make()
        op.process(0, t("a", 1, 11), 1)
        assert op.process(1, t("b", 2, 12), 2) == []

    def test_premature_negative_cascades(self):
        op = self.make()
        op.process(0, t("a", 1, 11), 1)
        op.process(1, t("a", 2, 12), 2)
        out = op.process(1, t("a", 2, 12, sign=-1), 5)
        assert len(out) == 1 and out[0].is_negative


class TestDupElimStandard:
    def make(self):
        return DupElimStandardOp(
            V, ListBuffer(lambda x: x.values), ListBuffer(lambda x: x.values))

    def test_first_occurrence_emitted_duplicates_swallowed(self):
        op = self.make()
        assert len(op.process(0, t("x", 1, 11), 1)) == 1
        assert op.process(0, t("x", 2, 12), 2) == []
        assert len(op.process(0, t("y", 3, 13), 3)) == 1

    def test_figure2_replacement_on_expiry(self):
        """Figure 2: when the x-representative expires, a younger x tuple is
        promoted and appended to the output stream."""
        op = self.make()
        op.process(0, t("x", 1, 11), 1)
        op.process(0, t("x", 5, 15), 5)   # duplicate, stored in input only
        out = op.expire(11)               # representative expires
        assert len(out) == 1
        assert out[0].values == ("x",) and out[0].exp == 15
        assert not out[0].is_negative

    def test_no_replacement_when_no_live_duplicate(self):
        op = self.make()
        op.process(0, t("x", 1, 11), 1)
        assert op.expire(11) == []

    def test_negative_for_representative_replaces_via_negative(self):
        op = self.make()
        op.process(0, t("x", 1, 11), 1)
        op.process(0, t("x", 5, 15), 5)
        out = op.process(0, t("x", 1, 11, sign=-1), 11)
        signs = [o.is_negative for o in out]
        assert signs == [True, False]
        assert out[1].exp == 15

    def test_negative_for_non_representative_is_silent(self):
        op = self.make()
        op.process(0, t("x", 1, 11), 1)
        op.process(0, t("x", 5, 15), 5)
        assert op.process(0, t("x", 5, 15, sign=-1), 9) == []

    def test_state_size_counts_input_and_output(self):
        op = self.make()
        op.process(0, t("x", 1, 11), 1)
        op.process(0, t("x", 2, 12), 2)
        assert op.state_size() == 3  # 2 input + 1 output


class TestDupElimDelta:
    def make(self):
        return DupElimDeltaOp(
            V, PartitionedBuffer(span=20, key_of=lambda x: x.values))

    def test_space_is_at_most_twice_output(self):
        op = self.make()
        for i in range(10):  # many duplicates of one value
            op.process(0, t("x", i, i + 15), i)
        assert op.state_size() <= 2

    def test_promotes_youngest_on_expiry(self):
        op = self.make()
        op.process(0, t("x", 0, 10), 0)
        op.process(0, t("x", 2, 12), 2)   # aux
        op.process(0, t("x", 4, 14), 4)   # aux overwritten (youngest)
        out = op.expire(10)
        assert len(out) == 1 and out[0].exp == 14

    def test_aux_keeps_longest_lived_duplicate_over_wk_input(self):
        """Regression: over WK input a later-arriving duplicate can have a
        *smaller* exp; the auxiliary must keep the max-exp one or a live
        value vanishes from the answer when the representative expires."""
        op = self.make()
        op.process(0, t("x", 0, 10), 0)   # representative
        op.process(0, t("x", 1, 20), 1)   # long-lived duplicate
        op.process(0, t("x", 2, 12), 2)   # short-lived, arrives later (WK)
        out = op.expire(10)
        assert len(out) == 1 and out[0].exp == 20

    def test_dead_auxiliary_not_promoted(self):
        op = self.make()
        op.process(0, t("x", 0, 10), 0)
        op.process(0, t("x", 1, 3), 1)  # younger arrival, shorter life? no —
        # aux must hold the max-exp duplicate; emulate via WK input where a
        # later-arriving tuple can expire earlier.
        out = op.expire(10)
        assert out == []  # aux (exp 3) already dead at 10: all duplicates dead

    def test_rejects_negative_tuples(self):
        op = self.make()
        with pytest.raises(ExecutionError, match="cannot process negative"):
            op.process(0, t("x", 0, 10, sign=-1), 0)

    def test_mid_list_rejection_charges_up_to_the_offender(self):
        """A negative in the middle of a list raises with the tuples before
        it processed and charged, itself charged, and the tail untouched —
        the counts one-list-per-tuple feeding leaves."""
        counters = Counters()
        op = DupElimDeltaOp(V, PartitionedBuffer(
            span=20, key_of=lambda x: x.values, counters=counters), counters)
        arrivals = [t("x", 0, 10), t("y", 0, 10), t("x", 0, 10, sign=-1),
                    t("z", 0, 10), t("z", 0, 10)]
        with pytest.raises(ExecutionError, match="cannot process negative"):
            op.process_batch(0, arrivals, 0)
        assert counters.tuples_processed == 3
        assert counters.negatives_processed == 1
        assert counters.results_produced == 2
        assert op.state_size() == 2


class TestGroupByOp:
    def make(self):
        # schema: (v, count); group by v; count aggregate
        return GroupByOp(Schema(["v", "n"]), (0,), ("count",), (None,),
                         ListBuffer(lambda x: x.values))

    def test_emits_updated_result_per_arrival(self):
        op = self.make()
        out = op.process(0, t("g", 1, 11), 1)
        assert out == [Tuple(("g", 1), 1)]
        out = op.process(0, t("g", 2, 12), 2)
        assert out[0].values == ("g", 2)

    def test_expiry_decrements_and_emits(self):
        op = self.make()
        op.process(0, t("g", 1, 11), 1)
        op.process(0, t("g", 2, 12), 2)
        out = op.expire(11)
        assert out[0].values == ("g", 1)

    def test_emptied_group_emits_deletion_marker(self):
        op = self.make()
        op.process(0, t("g", 1, 11), 1)
        out = op.expire(11)
        assert len(out) == 1 and out[0].is_negative
        assert op.group_count() == 0

    def test_one_result_per_group_per_expiry_batch(self):
        op = self.make()
        op.process(0, t("g", 1, 11), 1)
        op.process(0, t("g", 2, 11), 2)
        op.process(0, t("h", 3, 11), 3)
        out = op.expire(11)
        assert len(out) == 2  # one (negative) marker per emptied group
        assert all(o.is_negative for o in out)

    def test_negative_input_decrements(self):
        op = GroupByOp(Schema(["v", "n"]), (0,), ("count",), (None,),
                       HashBuffer(lambda x: x.values))
        op.process(0, t("g", 1, 11), 1)
        op.process(0, t("g", 2, 12), 2)
        out = op.process(0, t("g", 1, 11, sign=-1), 11)
        assert out[0].values == ("g", 1)

    def test_unknown_negative_is_ignored(self):
        op = self.make()
        assert op.process(0, t("g", 1, 11, sign=-1), 1) == []

    @pytest.mark.parametrize("readers", [True, []], ids=["read", "unread"])
    def test_expired_inputs_fold_in_expiry_order_on_any_schedule(
            self, readers):
        """A list buffer pops in arrival order, so one late pass would
        retract 0.2 before 0.1 where two timely passes retract 0.1 first —
        and ((0.5 - 0.1) - 0.2) != ((0.5 - 0.2) - 0.1) in floats.  The
        operator folds by ``exp``, whatever the pops' order."""
        def total_after(*passes):
            op = GroupByOp(Schema(["v", "s"]), (0,), ("sum",), (1,),
                           ListBuffer())
            op.readers = readers
            for value, exp in ((0.1, 20), (0.1, 20), (0.2, 12), (0.1, 10)):
                op.process(0, Tuple(("g", value), 1, exp), 1)
            for now in passes:
                op.expire(now)
            return op.rows()

        assert total_after(12) == total_after(10, 12) == [("g", 0.2)]
        assert ((0.5 - 0.2) - 0.1) != 0.2  # what arrival order would give

    def test_unread_group_by_expires_itself(self):
        """No reader: no result is built, no pass is asked for, and what
        is due is folded before the next arrival and at ``settle``."""
        counters = Counters()
        op = GroupByOp(Schema(["v", "n"]), (0,), ("count",), (None,),
                       FifoBuffer(counters=counters), counters)
        op.readers = []
        assert op.process(0, t("g", 1, 11), 1) == []
        assert op.process(0, t("g", 2, 12), 2) == []
        assert op.next_expiry(2) == float("inf")
        assert op.rows() == [("g", 2)]
        assert op.process(0, t("h", 11, 21), 11) == []  # g@11 folded first
        assert sorted(op.rows()) == [("g", 1), ("h", 1)]
        op.settle(11.5)  # nothing due: not even a peek at the buffer
        touches = counters.touches
        op.settle(11.5)
        assert counters.touches == touches
        op.settle(12)
        assert op.rows() == [("h", 1)] and op.group_count() == 1
        assert counters.results_produced == 4  # 3 arrivals + g's first expiry
        op.readers = [print]  # a reader attaches: the eager schedule is back
        assert op.next_expiry(12) == 21
        assert op.expire(21) == [Tuple(("h", 0), 21, sign=-1)]


class TestNegationOp:
    def make(self, self_expire=True):
        return NegationOp(V, 0, 0, self_expire=self_expire)

    def test_equation1_basic(self):
        op = self.make()
        out = op.process(0, t("a", 1, 11), 1)
        assert len(out) == 1 and not out[0].is_negative

    def test_w2_arrival_evicts_with_negative(self):
        """Premature expiration: the defining STR behaviour."""
        op = self.make()
        op.process(0, t("a", 1, 11), 1)
        out = op.process(1, t("a", 2, 12), 2)
        assert len(out) == 1 and out[0].is_negative
        assert out[0].values == ("a",)

    def test_w2_arrival_other_value_no_effect(self):
        op = self.make()
        op.process(0, t("a", 1, 11), 1)
        assert op.process(1, t("b", 2, 12), 2) == []

    def test_w2_expiry_readmits(self):
        op = self.make()
        op.process(0, t("a", 1, 11), 1)
        op.process(1, t("a", 2, 5), 2)    # evicts
        out = op.expire(5)                # W2 tuple expires -> readmit
        assert len(out) == 1 and not out[0].is_negative
        assert out[0].exp == 11

    def test_w1_natural_expiry_silent_when_self_expiring(self):
        op = self.make()
        op.process(0, t("a", 1, 5), 1)
        assert op.expire(5) == []

    def test_w1_window_negative_retracts_member_under_nt(self):
        """Under NT the window's negative arrives at the tuple's ``exp``
        (not premature), and the departing member is still retracted for
        the hash-keyed state above; the operator expires nothing itself."""
        op = self.make(self_expire=False)
        op.process(0, t("a", 1, 5), 1)
        assert op.expire(5) == []
        out = op.process(0, t("a", 1, 5, sign=-1), 5)
        assert len(out) == 1 and out[0].is_negative

    def test_suppressed_tuple_admitted_on_capacity(self):
        """With v1=2, v2=1 the answer holds the oldest left tuple; when the
        W2 tuple expires the suppressed one is admitted."""
        op = self.make()
        op.process(0, t("a", 1, 11), 1)
        op.process(1, t("a", 2, 6), 2)        # evicts the only member
        out = op.process(0, t("a", 3, 13), 3)  # v1=2 > v2=1: one admitted
        assert len(out) == 1 and not out[0].is_negative
        assert out[0].exp == 11  # the *oldest* suppressed tuple is admitted
        out = op.expire(6)                     # W2 expires: second admitted
        assert [o.exp for o in out if not o.is_negative] == [13]

    def test_counts_for(self):
        op = self.make()
        op.process(0, t("a", 1, 11), 1)
        op.process(0, t("a", 2, 12), 2)
        op.process(1, t("a", 3, 13), 3)
        assert op.counts_for("a") == (2, 1)
        assert op.answer_size() == 1


class TestNRRJoinOp:
    def make(self):
        nrr = NRR("n", Schema(["k", "name"]), [("a", "alpha")])
        nrr.ensure_index(0)
        return NRRJoinOp(Schema(["v", "k", "name"]), nrr, 0, 0), nrr

    def test_probe_current_state(self):
        op, nrr = self.make()
        out = op.process(0, t("a", 1, 11), 1)
        assert out == [Tuple(("a", "a", "alpha"), 1, 11)]

    def test_updates_do_not_retract(self):
        op, nrr = self.make()
        op.process(0, t("a", 1, 11), 1)
        nrr.delete_at(2, ("a", "alpha"))
        # A later arrival sees the new state; nothing retracts the old result.
        assert op.process(0, t("a", 3, 13), 3) == []

    def test_rejects_negatives(self):
        op, _nrr = self.make()
        with pytest.raises(ExecutionError, match="negative"):
            op.process(0, t("a", 1, 11, sign=-1), 1)

    def test_mid_list_rejection_charges_up_to_the_offender(self):
        op, _nrr = self.make()
        op.counters = counters = Counters()
        with pytest.raises(ExecutionError, match="negative"):
            op.process_batch(0, [t("a", 1, 11), t("a", 1, 11, sign=-1),
                                 t("a", 1, 11)], 1)
        assert (counters.tuples_processed, counters.negatives_processed,
                counters.results_produced) == (2, 1, 1)


class TestRelationJoinOp:
    def make(self):
        rel = Relation("r", Schema(["k", "name"]), [("a", "alpha")])
        rel.ensure_index(0)
        op = RelationJoinOp(Schema(["v", "k", "name"]), rel, 0, 0,
                            HashBuffer(lambda x: x.values[0]))
        return op, rel

    def test_stream_arrival_probes_relation(self):
        op, _ = self.make()
        out = op.process(0, t("a", 1, 11), 1)
        assert out == [Tuple(("a", "a", "alpha"), 1, 11)]

    def test_relation_insert_is_retroactive(self):
        op, rel = self.make()
        op.process(0, t("b", 1, 11), 1)
        rel.insert(("b", "beta"))
        out = op.on_relation_insert(("b", "beta"), 2)
        assert len(out) == 1
        assert out[0].values == ("b", "b", "beta") and out[0].exp == 11

    def test_relation_delete_retracts_with_negatives(self):
        op, rel = self.make()
        op.process(0, t("a", 1, 11), 1)
        rel.delete(("a", "alpha"))
        out = op.on_relation_delete(("a", "alpha"), 2)
        assert len(out) == 1 and out[0].is_negative

    def test_expired_window_tuples_not_rejoined(self):
        op, rel = self.make()
        op.process(0, t("b", 1, 5), 1)
        rel.insert(("b", "beta"))
        assert op.on_relation_insert(("b", "beta"), 6) == []

    def test_stream_negative_deletes_and_retracts(self):
        op, _ = self.make()
        op.process(0, t("a", 1, 11), 1)
        out = op.process(0, t("a", 1, 11, sign=-1), 4)
        assert len(out) == 1 and out[0].is_negative
        assert op.state_size() == 0


# ---------------------------------------------------------------------------
# List transparency: one list ≡ its tuples fed one list each
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
LIVES = (3.0, 6.0, 10.0)
ROWS = [(0, "a"), (1, "b"), (1, "c")]


def _first(x):
    return x.values[0]


def _values(x):
    return x.values


def _indexed(table):
    table.ensure_index(0)
    return table


#: class -> (factory(counters), input arity, accepts negatives, lifetimes).
#: Every buffer shares the operator's counters, so the snapshot compared
#: below is the full one (inserts, deletes, probes and touches included).
ARRIVAL_OPERATORS = {
    SelectOp: (lambda c: SelectOp(VV, lambda vals: vals[0] != 1, c),
               1, True, LIVES),
    ProjectOp: (lambda c: ProjectOp(Schema(["w"]), (1,), c), 1, True, LIVES),
    UnionOp: (lambda c: UnionOp(VV, c), 2, True, LIVES),
    # The materialized window is a FIFO: one lifetime keeps exp in order.
    WindowOp: (lambda c: WindowOp(VV, TimeWindow(10), materialize=True,
                                  counters=c), 1, True, LIVES[-1:]),
    JoinOp: (lambda c: JoinOp(VV, 0, 0, HashBuffer(_first, c),
                              ListBuffer(_first, c), c), 2, True, LIVES),
    IntersectOp: (lambda c: IntersectOp(VV, HashBuffer(_values, c),
                                        HashBuffer(_values, c), c),
                  2, True, LIVES),
    DupElimStandardOp: (lambda c: DupElimStandardOp(
        VV, HashBuffer(_values, c), ListBuffer(_values, c), c),
        1, True, LIVES),
    DupElimDeltaOp: (lambda c: DupElimDeltaOp(
        VV, PartitionedBuffer(span=20, key_of=_values, counters=c), c),
        1, False, LIVES),
    GroupByOp: (lambda c: GroupByOp(
        Schema(["v", "n", "s"]), (0,), ("count", "sum"), (None, 1),
        ListBuffer(_values, c), c), 1, True, LIVES),
    NegationOp: (lambda c: NegationOp(VV, 0, 0, counters=c), 2, True, LIVES),
    # WKS inputs: one lifetime keeps each side's exp in arrival order.
    NegationFifoOp: (lambda c: NegationFifoOp(VV, 0, 0, counters=c),
                     2, False, LIVES[-1:]),
    NRRJoinOp: (lambda c: NRRJoinOp(
        VV, _indexed(NRR("n", Schema(["k", "name"]), ROWS)), 0, 0, c),
        1, False, LIVES),
    RelationJoinOp: (lambda c: RelationJoinOp(
        VV, _indexed(Relation("r", Schema(["k", "name"]), ROWS)), 0, 0,
        HashBuffer(_first, c), counters=c), 1, True, LIVES),
}


@st.composite
def arrival_scripts(draw, inputs, negatives, lives):
    """Steps ``(input, tuples, now)`` at non-decreasing clocks.  Negatives
    retract a positive fed earlier on the same input (possibly earlier in
    the same list, possibly already expired), each at most once."""
    now = 0.0
    fed = [[] for _ in range(inputs)]
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        now += draw(st.sampled_from([0.0, 0.5, 1.0, 4.0]))
        i = draw(st.integers(0, inputs - 1))
        tuples = []
        for _ in range(draw(st.integers(0, 4))):
            if negatives and fed[i] and draw(st.integers(0, 3)) == 0:
                victim = fed[i].pop(draw(st.integers(0, len(fed[i]) - 1)))
                tuples.append(victim.negate())
            else:
                values = (draw(st.integers(0, 2)), draw(st.integers(0, 1)))
                tuples.append(
                    Tuple(values, now, now + draw(st.sampled_from(lives))))
                fed[i].append(tuples[-1])
        steps.append((i, tuples, now))
    return steps


def test_the_property_covers_every_arrival_handling_operator():
    # A port is fed by pull(), not by arrivals.
    assert set(ARRIVAL_OPERATORS) == all_subclasses(PhysicalOperator) - {PortOp}


#: Every operator as the next stage reads it, then those a state view can
#: leave unread (``readers = []``: the join, δ and group-by build no
#: output, the group-by expires itself, an unread join is fed no negative;
#: intersection inherits the attribute and ignores it).
TRANSPARENCY_CASES = [
    pytest.param(cls, False, id=cls.__name__) for cls in ARRIVAL_OPERATORS
] + [pytest.param(cls, True, id=f"{cls.__name__}-unread")
     for cls in ARRIVAL_OPERATORS if hasattr(cls, "readers")]


def test_the_unread_cases_are_the_state_view_roots():
    assert [case.values[0] for case in TRANSPARENCY_CASES if case.values[1]] \
        == [JoinOp, IntersectOp, DupElimDeltaOp, GroupByOp]


@pytest.mark.parametrize("cls,unread", TRANSPARENCY_CASES)
@SETTINGS
@given(data=st.data())
def test_process_batch_is_list_transparent(cls, unread, data):
    """``process_batch(i, [a, b, …], now)`` equals ``process_batch(i, [a],
    now)``, ``process_batch(i, [b], now)``, … concatenated: same outputs,
    same state, same charges on every counter."""
    make, inputs, negatives, lives = ARRIVAL_OPERATORS[cls]
    steps = data.draw(arrival_scripts(
        inputs, negatives and not (unread and issubclass(cls, JoinOp)),
        lives))
    whole_counters, single_counters = Counters(), Counters()
    whole, single = make(whole_counters), make(single_counters)
    assert type(whole) is cls
    if unread:
        whole.readers, single.readers = [], []
    for i, tuples, now in steps:
        assert whole.expire(now) == single.expire(now)
        assert whole.process_batch(i, tuples, now) == [
            out for arrival in tuples
            for out in single.process_batch(i, [arrival], now)]
        assert whole.state_size() == single.state_size()
        assert whole_counters.snapshot() == single_counters.snapshot()
