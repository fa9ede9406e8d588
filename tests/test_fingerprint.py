"""Structural fingerprints (repro.core.fingerprint).

The sharing planner trusts one invariant: equal fingerprints ⇒ the
subtrees compile to identical physical pipelines (under equal configs).
These tests pin the positive direction — separately constructed but
structurally identical plans hash equal — and the negative one: every
runtime-relevant parameter (predicate, window, attributes, shape)
perturbs the digest.
"""

from repro import (
    CountWindow,
    Predicate,
    Schema,
    StreamDef,
    TimeWindow,
    attr_equals,
    from_window,
)
from repro.core.fingerprint import fingerprint, fingerprint_all, shareable
from repro.core.plan import SharedScan
from repro.lang.catalog import SourceCatalog
from repro.lang.compiler import compile_query
from repro.workloads.queries import query1, query3, query4
from repro.workloads.traffic import TrafficTraceGenerator

S = Schema(["a", "b"])


def _scan(name="s0", window=10.0):
    return from_window(StreamDef(name, S, TimeWindow(window)))


class TestStability:
    def test_same_plan_twice(self):
        p1 = _scan().where(attr_equals("a", 1)).project("a").build()
        p2 = _scan().where(attr_equals("a", 1)).project("a").build()
        assert fingerprint(p1) == fingerprint(p2)

    def test_workload_factories_are_stable_across_generators(self):
        g1, g2 = TrafficTraceGenerator(), TrafficTraceGenerator()
        for factory in (query1, query3, query4):
            assert fingerprint(factory(g1, 30.0)) == \
                fingerprint(factory(g2, 30.0))

    def test_text_compilation_is_stable(self):
        catalog = SourceCatalog()
        catalog.add_stream("s0", S)
        text = "SELECT DISTINCT a FROM s0 [RANGE 20] WHERE s0.a = 3"
        assert fingerprint(compile_query(text, catalog)) == \
            fingerprint(compile_query(text, catalog))

    def test_subtree_fingerprints_included(self):
        plan = _scan().where(attr_equals("a", 1)).build()
        fps = fingerprint_all(plan)
        scan_only = _scan().build()
        assert fps[id(plan.children[0])] == fingerprint(scan_only)


class TestSensitivity:
    def test_stream_name(self):
        assert fingerprint(_scan("s0").build()) != \
            fingerprint(_scan("s1").build())

    def test_window_size(self):
        assert fingerprint(_scan(window=10.0).build()) != \
            fingerprint(_scan(window=20.0).build())

    def test_window_kind(self):
        time_based = from_window(StreamDef("s0", S, TimeWindow(10))).build()
        count_based = from_window(StreamDef("s0", S, CountWindow(10))).build()
        assert fingerprint(time_based) != fingerprint(count_based)

    def test_predicate_label(self):
        a1 = _scan().where(attr_equals("a", 1)).build()
        a2 = _scan().where(attr_equals("a", 2)).build()
        assert fingerprint(a1) != fingerprint(a2)

    def test_anonymous_predicates_never_collide(self):
        p = Predicate(("a",), lambda v: v[0] > 0)
        q = Predicate(("a",), lambda v: v[0] > 0)
        assert fingerprint(_scan().where(p).build()) != \
            fingerprint(_scan().where(q).build())

    def test_projection_attrs(self):
        assert fingerprint(_scan().project("a").build()) != \
            fingerprint(_scan().project("b").build())

    def test_join_attrs(self):
        left, right = _scan("s0"), _scan("s1")
        on_a = left.join(_scan("s1"), on="a").build()
        on_b = _scan("s0").join(_scan("s1"), on="b").build()
        assert fingerprint(on_a) != fingerprint(on_b)

    def test_operator_shape(self):
        select = _scan().where(attr_equals("a", 1)).build()
        distinct = _scan().distinct().build()
        assert fingerprint(select) != fingerprint(distinct)


class TestShareable:
    def test_plain_subtrees_are_shareable(self):
        assert shareable(_scan().where(attr_equals("a", 1)).build())

    def test_count_windows_are_not(self):
        plan = from_window(StreamDef("s0", S, CountWindow(5))).build()
        assert not shareable(plan)

    def test_shared_scan_is_not_reshared(self):
        inner = _scan().build()
        scan = SharedScan(inner, fingerprint(inner))
        assert not shareable(scan)
