"""Unit tests for the tuple and schema model (repro.core.tuples)."""

import math

import pytest

from repro import NEGATIVE, NEVER, POSITIVE, Schema, SchemaError, Tuple
from repro.core.tuples import (
    deletion_key,
    join_tuples,
    join_values,
    matches_deletion,
)


class TestSchema:
    def test_fields_preserved_in_order(self):
        s = Schema(["b", "a", "c"])
        assert s.fields == ("b", "a", "c")

    def test_index_of(self):
        s = Schema(["x", "y"])
        assert s.index_of("x") == 0
        assert s.index_of("y") == 1

    def test_index_of_unknown_raises(self):
        with pytest.raises(SchemaError, match="not in schema"):
            Schema(["x"]).index_of("z")

    def test_indices_of_multiple(self):
        s = Schema(["a", "b", "c"])
        assert s.indices_of(["c", "a"]) == (2, 0)

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema(["a", "a"])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError, match="at least one"):
            Schema([])

    def test_concat_disjoint(self):
        s = Schema(["a"]).concat(Schema(["b"]))
        assert s.fields == ("a", "b")

    def test_concat_clash_without_prefixes_raises(self):
        with pytest.raises(SchemaError, match="clash"):
            Schema(["a", "b"]).concat(Schema(["b", "c"]))

    def test_concat_clash_with_prefixes(self):
        s = Schema(["a", "b"]).concat(Schema(["b", "c"]),
                                      prefixes=("l_", "r_"))
        assert s.fields == ("a", "l_b", "r_b", "c")

    def test_project_validates_and_orders(self):
        s = Schema(["a", "b", "c"]).project(["c", "a"])
        assert s.fields == ("c", "a")
        with pytest.raises(SchemaError):
            Schema(["a"]).project(["nope"])

    def test_container_protocol(self):
        s = Schema(["a", "b"])
        assert len(s) == 2
        assert "a" in s and "z" not in s
        assert list(s) == ["a", "b"]

    def test_equality_and_hash(self):
        assert Schema(["a"]) == Schema(["a"])
        assert Schema(["a"]) != Schema(["b"])
        assert hash(Schema(["a", "b"])) == hash(Schema(["a", "b"]))


class TestTuple:
    def test_defaults(self):
        t = Tuple(("x",), 5)
        assert t.exp == NEVER
        assert t.sign == POSITIVE
        assert t.values == ("x",)

    def test_immutability(self):
        t = Tuple(("x",), 5)
        with pytest.raises(AttributeError):
            t.ts = 6

    @pytest.mark.parametrize("slot", ["values", "ts", "exp", "sign"])
    def test_every_slot_refuses_assignment_and_deletion(self, slot):
        t = Tuple(("x",), 5, exp=10)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(t, slot, getattr(t, slot))
        with pytest.raises(AttributeError):
            delattr(t, slot)
        assert (t.values, t.ts, t.exp, t.sign) == (("x",), 5, 10, POSITIVE)

    def test_no_instance_dict(self):
        t = Tuple(("x",), 5)
        assert not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            t.extra = 1

    def test_values_are_copied_into_a_tuple(self):
        values = ["x", "y"]
        t = Tuple(values, 5)
        values.append("z")
        assert t.values == ("x", "y")

    @pytest.mark.parametrize("field", ["values", "ts", "exp", "sign"])
    def test_equality_and_hash_cover_every_slot(self, field):
        base = {"values": ("x",), "ts": 5, "exp": 10, "sign": POSITIVE}
        other = dict(base, **{field: {"values": ("y",), "ts": 6, "exp": 11,
                                      "sign": NEGATIVE}[field]})
        a, b = Tuple(**base), Tuple(**other)
        assert a != b and not a == b
        assert a == Tuple(**base) and hash(a) == hash(Tuple(**base))
        assert len({a, b, Tuple(**base)}) == 2

    def test_equality_against_other_types(self):
        t = Tuple(("x",), 5, exp=10)
        assert t != (("x",), 5, 10, POSITIVE)
        assert t != "x"

    def test_a_directly_built_negative_equals_negate(self):
        t = Tuple(("x", 2), 5, exp=10)
        direct = Tuple(t.values, t.ts, t.exp, NEGATIVE)
        assert direct == t.negate() and hash(direct) == hash(t.negate())
        assert direct.is_negative and direct.sign < 0

    def test_liveness(self):
        t = Tuple(("x",), 5, exp=10)
        assert t.is_live(9.99)
        assert not t.is_live(10)  # expires exactly at exp
        assert not t.is_live(11)

    def test_never_expires(self):
        assert Tuple(("x",), 5).is_live(math.inf) is False  # inf > inf fails
        assert Tuple(("x",), 5).is_live(1e18)

    def test_negate_flips_sign_twice(self):
        t = Tuple(("x",), 5, exp=10)
        n = t.negate()
        assert n.is_negative
        assert n.values == t.values and n.ts == t.ts and n.exp == t.exp
        assert not n.negate().is_negative

    def test_with_values_preserves_timestamps(self):
        t = Tuple(("x", "y"), 5, exp=10)
        p = t.with_values(("y",))
        assert p.values == ("y",) and p.ts == 5 and p.exp == 10

    def test_with_ts_and_with_exp(self):
        t = Tuple(("x",), 5, exp=10)
        assert t.with_ts(7).ts == 7
        assert t.with_exp(12).exp == 12

    def test_value_equality_and_hash(self):
        a = Tuple(("x",), 5, exp=10)
        b = Tuple(("x",), 5, exp=10)
        assert a == b and hash(a) == hash(b)
        assert a != a.negate()
        assert a != Tuple(("x",), 5, exp=11)

    def test_repr_shows_sign(self):
        assert "+" in repr(Tuple(("x",), 1))
        assert "-" in repr(Tuple(("x",), 1).negate())


class TestJoinHelpers:
    def test_join_values_concatenates(self):
        a = Tuple(("x",), 1, exp=5)
        b = Tuple(("y", "z"), 2, exp=7)
        assert join_values(a, b) == ("x", "y", "z")

    def test_join_tuples_min_exp_and_generation_time(self):
        a = Tuple(("x",), 1, exp=5)
        b = Tuple(("y",), 2, exp=7)
        j = join_tuples(a, b, now=3)
        assert j.exp == 5      # minimum of constituents (Section 2.2)
        assert j.ts == 3       # generation time
        assert j.values == ("x", "y")
        assert not j.is_negative

    def test_join_tuples_sign_product(self):
        a = Tuple(("x",), 1, exp=5).negate()
        b = Tuple(("y",), 2, exp=7)
        assert join_tuples(a, b, now=3).is_negative
        assert not join_tuples(a, b.negate(), now=3).is_negative

    def test_matches_deletion_ignores_ts_and_sign(self):
        stored = Tuple(("x",), 1, exp=5)
        negative = Tuple(("x",), 4, exp=5, sign=NEGATIVE)
        assert matches_deletion(stored, negative)
        assert not matches_deletion(Tuple(("x",), 1, exp=6), negative)
        assert not matches_deletion(Tuple(("y",), 1, exp=5), negative)

    def test_deletion_key(self):
        t = Tuple(("x",), 1, exp=5)
        assert deletion_key(t) == (("x",), 5)
        assert deletion_key(t.negate()) == deletion_key(t)
