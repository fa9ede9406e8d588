"""Reference semantics: the one-time relational evaluation of Definition 1.

"At any time τ, Q(τ) must be equal to the output of a corresponding one-time
relational query whose inputs are the current states of the streams, sliding
windows, and relations referenced in Q."

:class:`ReferenceEvaluator` observes the same event sequence the engine
processes, keeps the full arrival history of every base stream, and can
compute the expected answer multiset of any logical plan *from scratch* at
any time.  It is deliberately naive — clarity over speed — and serves as the
oracle against which all three execution strategies are validated by the
unit and property test suites.

NRR semantics follow Definition 2: a window tuple w joined with an NRR
contributes results reflecting the NRR state at w's arrival time
(:meth:`NRR.snapshot_at`), while ordinary relations contribute their
*current* state.

One ambiguity is inherent to the paper's negation semantics (Equation 1):
the answer contains max(v1 − v2, 0) tuples *chosen from* W1's tuples with
value v, and any choice is admissible.  When the left input's tuples are
fully determined by the negation attribute (e.g. single-attribute schemas)
the answer is unambiguous; otherwise :meth:`evaluate` picks the tuples with
the largest expiration timestamps, which matches the engine's oldest-prefix
policy only up to projection on the negation attribute — compare projected
answers in that case.
"""

from __future__ import annotations

from collections import Counter as Multiset
from typing import Any

from ..errors import ExecutionError, PlanError
from ..streams.relation import NRR
from ..streams.stream import Arrival, Event, RelationUpdate
from ..streams.window import CountWindow, TimeWindow
from .plan import (
    DupElim,
    GroupBy,
    Intersect,
    Join,
    LogicalNode,
    Negation,
    NRRJoin,
    Project,
    RelationJoin,
    Rename,
    Select,
    Union,
    WindowScan,
)


def _aggregate(kind: str, column: list) -> Any:
    """One aggregate over a (non-empty) group's column, from scratch: the
    oracle shares no fold with the engine it judges."""
    builtin = {"count": len, "sum": sum, "min": min, "max": max}.get(kind)
    if builtin is not None:
        return builtin(column)
    mean = sum(column) / len(column)
    if kind == "avg":
        return mean
    if kind not in ("var", "stddev"):
        raise PlanError(f"unknown aggregate kind {kind!r}")
    variance = max(sum(v * v for v in column) / len(column) - mean * mean,
                   0.0)
    return variance if kind == "var" else variance ** 0.5


class _LiveTuple:
    """A base tuple with enough metadata for windowing and NRR versioning."""

    __slots__ = ("values", "ts", "seq")

    def __init__(self, values: tuple, ts: float, seq: int):
        self.values = values
        self.ts = ts
        self.seq = seq


class ReferenceEvaluator:
    """From-scratch relational evaluation over window snapshots."""

    def __init__(self) -> None:
        self._history: dict[str, list[_LiveTuple]] = {}
        self.now = float("-inf")

    # -- observation -------------------------------------------------------------

    def observe(self, event: Event) -> None:
        """Record an event (arrivals matter; relation updates are applied to
        the shared Relation/NRR objects by the engine already)."""
        self.now = max(self.now, event.ts)
        if isinstance(event, Arrival):
            log = self._history.setdefault(event.stream, [])
            log.append(_LiveTuple(event.values, event.ts, len(log) + 1))
        elif isinstance(event, RelationUpdate):
            pass  # shared Relation/NRR objects are mutated by the engine

    def observe_standalone(self, event: Event,
                           relations: dict[str, Any]) -> None:
        """Observe an event *and* apply relation updates (for oracle-only
        runs where no engine shares the relation objects)."""
        self.observe(event)
        if isinstance(event, RelationUpdate):
            relation = relations[event.relation]
            if isinstance(relation, NRR):
                if event.op == RelationUpdate.INSERT:
                    relation.insert_at(event.ts, event.values)
                else:
                    relation.delete_at(event.ts, event.values)
            elif event.op == RelationUpdate.INSERT:
                relation.insert(event.values)
            else:
                relation.delete(event.values)

    # -- evaluation ----------------------------------------------------------------

    def window_contents(self, leaf: WindowScan, now: float) -> list[_LiveTuple]:
        """The live tuples of a leaf's window at time ``now``."""
        log = self._history.get(leaf.stream.name, [])
        window = leaf.stream.window
        if window is None:
            return [t for t in log if t.ts <= now]
        if isinstance(window, TimeWindow):
            return [t for t in log
                    if t.ts <= now and window.expiry_of(t.ts) > now]
        if isinstance(window, CountWindow):
            seen = [t for t in log if t.ts <= now]
            return seen[-window.size:]
        raise ExecutionError(f"unknown window type {window!r}")

    def evaluate(self, plan: LogicalNode, now: float | None = None) -> Multiset:
        """Expected answer multiset Q(now) as a Counter of value tuples."""
        now = self.now if now is None else now
        return self._eval(plan, now)

    def _eval(self, node: LogicalNode, now: float) -> Multiset:
        if isinstance(node, WindowScan):
            return Multiset(t.values for t in self.window_contents(node, now))

        if isinstance(node, Select):
            child = self._eval(node.child, now)
            fn = node.predicate.fn
            return Multiset({v: c for v, c in child.items() if fn(v)})

        if isinstance(node, Project):
            child = self._eval(node.child, now)
            out: Multiset = Multiset()
            for v, c in child.items():
                out[tuple(v[i] for i in node.indices)] += c
            return out

        if isinstance(node, Rename):
            return self._eval(node.child, now)

        if isinstance(node, Union):
            return self._eval(node.children[0], now) + self._eval(
                node.children[1], now)

        if isinstance(node, Join):
            left = self._eval(node.left, now)
            right = self._eval(node.right, now)
            li = node.left.schema.index_of(node.left_attr)
            ri = node.right.schema.index_of(node.right_attr)
            by_key: dict[Any, list[tuple[tuple, int]]] = {}
            for rv, rc in right.items():
                by_key.setdefault(rv[ri], []).append((rv, rc))
            out = Multiset()
            for lv, lc in left.items():
                for rv, rc in by_key.get(lv[li], ()):
                    out[lv + rv] += lc * rc
            return out

        if isinstance(node, Intersect):
            left = self._eval(node.children[0], now)
            right = self._eval(node.children[1], now)
            out = Multiset()
            for v, lc in left.items():
                rc = right.get(v, 0)
                if rc:
                    # One result per (left, right) pair — join-on-all-attrs
                    # semantics, matching the physical operator.
                    out[v] += lc * rc
            return out

        if isinstance(node, DupElim):
            child = self._eval(node.child, now)
            return Multiset({v: 1 for v in child})

        if isinstance(node, GroupBy):
            child = self._eval(node.child, now)
            key_idx = node.child.schema.indices_of(node.keys)
            groups: dict[tuple, list[tuple]] = {}
            for v, c in child.items():
                groups.setdefault(tuple(v[i] for i in key_idx), []).extend(
                    [v] * c)
            out = Multiset()
            for key, rows in groups.items():
                aggs = []
                for spec in node.aggregates:
                    attr = (node.child.schema.index_of(spec.attr)
                            if spec.attr is not None else None)
                    aggs.append(_aggregate(
                        spec.kind, rows if attr is None
                        else [row[attr] for row in rows]))
                out[key + tuple(aggs)] += 1
            return out

        if isinstance(node, Negation):
            right = self._eval(node.right, now)
            li = node.left.schema.index_of(node.left_attr)
            ri = node.right.schema.index_of(node.right_attr)
            n2: Multiset = Multiset()
            for rv, rc in right.items():
                n2[rv[ri]] += rc
            # Per value v keep max(v1 - v2, 0) left tuples (Equation 1).
            # Any choice of tuples satisfies the equation; to match the
            # engine's oldest-prefix policy exactly, prefer the *oldest*
            # left tuples when the left subtree is stateless enough to
            # expose per-tuple timestamps.  Otherwise fall back to an
            # arbitrary (multiset-order) choice — exact only up to
            # projection on the negation attribute.
            by_value: dict[Any, list[tuple[tuple, int]]] = {}
            try:
                rows = self._stream_rows_with_ts(node.left, now)
            except ExecutionError:
                rows = None
            if rows is not None:
                for lv, _ts, lc in sorted(rows, key=lambda r: r[1]):
                    by_value.setdefault(lv[li], []).append((lv, lc))
            else:
                left = self._eval(node.left, now)
                for lv, lc in left.items():
                    by_value.setdefault(lv[li], []).append((lv, lc))
            out = Multiset()
            for value, entries in by_value.items():
                v1 = sum(c for _v, c in entries)
                keep = max(v1 - n2.get(value, 0), 0)
                for lv, lc in entries:
                    if keep <= 0:
                        break
                    take = min(lc, keep)
                    out[lv] += take
                    keep -= take
            return out

        if isinstance(node, NRRJoin):
            # Definition 2: each live window tuple reflects the NRR state at
            # its own arrival time.
            leaf_rows = self._stream_rows_with_ts(node.child, now)
            li = node.child.schema.index_of(node.left_attr)
            ri = node.nrr.schema.index_of(node.rel_attr)
            out = Multiset()
            for values, ts, count in leaf_rows:
                snapshot = node.nrr.snapshot_at(ts)
                for row, rc in snapshot.items():
                    if row[ri] == values[li]:
                        out[values + row] += count * rc
            return out

        if isinstance(node, RelationJoin):
            child = self._eval(node.child, now)
            li = node.child.schema.index_of(node.left_attr)
            ri = node.relation.schema.index_of(node.rel_attr)
            rows = node.relation.multiset()
            out = Multiset()
            for lv, lc in child.items():
                for row, rc in rows.items():
                    if row[ri] == lv[li]:
                        out[lv + row] += lc * rc
            return out

        raise ExecutionError(f"oracle cannot evaluate {node!r}")

    def _stream_rows_with_ts(self, node: LogicalNode,
                             now: float) -> list[tuple[tuple, float, int]]:
        """Evaluate a sub-plan while retaining per-tuple arrival timestamps.

        Needed for NRR versioning; supports the stateless operators that may
        legally sit below an NRR-join (window scans, selections,
        projections, unions).
        """
        if isinstance(node, WindowScan):
            return [(t.values, t.ts, 1)
                    for t in self.window_contents(node, now)]
        if isinstance(node, Select):
            fn = node.predicate.fn
            return [(v, ts, c)
                    for v, ts, c in self._stream_rows_with_ts(node.child, now)
                    if fn(v)]
        if isinstance(node, Project):
            return [(tuple(v[i] for i in node.indices), ts, c)
                    for v, ts, c in self._stream_rows_with_ts(node.child, now)]
        if isinstance(node, Rename):
            return self._stream_rows_with_ts(node.child, now)
        if isinstance(node, Union):
            return (self._stream_rows_with_ts(node.children[0], now)
                    + self._stream_rows_with_ts(node.children[1], now))
        raise ExecutionError(
            "the oracle supports NRR-joins only above stateless operators; "
            f"found {node!r} below an NRR-join"
        )
