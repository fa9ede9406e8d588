"""Aggregate kinds as finalizers over one per-group slot list (Section 2.1).

Group-by "incrementally updates the value of a given aggregate for each
group": every arrival adds a value, every expiration removes one, and the
current aggregate must be reportable at any time.  A group is therefore
one flat list — its live input count ``n``, its finished result row (kept
until a fold outdates it), its key values, then one accumulator per
referenced attribute: Σx, Σx² where a variance needs it, and a sorted
multiset only for MIN/MAX (removing the current extremum requires knowing
the runner-up).  The aggregate kinds are *finalizers* over those slots, so
COUNT, SUM and AVG over one attribute share one accumulator and one fold.
The paper's cost model calls the per-update cost C (Section 5.4.1).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Sequence

from ..errors import PlanError

#: Head of every group's slot list; accumulators follow.
N, ROW, GROUP = 0, 1, 2


def _variance(st: list, total: int, squares: int) -> Any:
    n = st[N]
    if not n:
        return None
    mean = st[total] / n
    # Guard tiny negative values from floating-point cancellation.
    return max(st[squares] / n - mean * mean, 0.0)


def _stddev(st: list, total: int, squares: int) -> Any:
    variance = _variance(st, total, squares)
    return None if variance is None else variance ** 0.5


#: kind -> (accumulators it reads, finalizer(slots, *their positions)).
KINDS = {
    "count": ((), lambda st: st[N]),
    "sum": (("sum",), lambda st, i: st[i]),
    "avg": (("sum",), lambda st, i: st[i] / st[N] if st[N] else None),
    "var": (("sum", "squares"), _variance),
    "stddev": (("sum", "squares"), _stddev),
    "min": (("sorted",), lambda st, i: st[i][0] if st[i] else None),
    "max": (("sorted",), lambda st, i: st[i][-1] if st[i] else None),
}


class GroupSlots:
    """The slot layout of one group-by and the fold over it."""

    def __init__(self, kinds: Sequence[str], attrs: Sequence[int | None]):
        where: dict[tuple[str, int | None], int] = {}
        finish = []
        for kind, attr in zip(kinds, attrs):
            if kind not in KINDS:
                raise PlanError(f"unknown aggregate kind {kind!r}")
            reads, finalizer = KINDS[kind]
            finish.append((finalizer, [
                where.setdefault((acc, attr), GROUP + 1 + len(where))
                for acc in reads]))
        self._finish = tuple(finish)
        self._sums, self._squares, self._sorted = (
            tuple((slot, attr) for (acc, attr), slot in where.items()
                  if acc == name) for name in ("sum", "squares", "sorted"))
        self._width = len(where)

    def new(self, group: tuple) -> list:
        """An empty group's slots."""
        st = [0, None, group] + [0] * self._width
        for slot, _attr in self._sorted:
            st[slot] = []
        return st

    def fold(self, st: list, values: tuple, adding: bool) -> None:
        """Add (an arrival) or retract (an expiry, a negative tuple) one
        input's values — every path into a group's state runs this."""
        st[ROW] = None
        if adding:
            st[N] += 1
            for slot, attr in self._sums:
                st[slot] += values[attr]
            for slot, attr in self._squares:
                st[slot] += values[attr] * values[attr]
            for slot, attr in self._sorted:
                insort(st[slot], values[attr])
            return
        st[N] -= 1
        for slot, attr in self._sums:
            st[slot] -= values[attr]
        for slot, attr in self._squares:
            st[slot] -= values[attr] * values[attr]
        for slot, attr in self._sorted:
            live, value = st[slot], values[attr]
            i = bisect_left(live, value)
            if i == len(live) or live[i] != value:
                raise PlanError(
                    f"aggregate removal of absent value {value!r}; "
                    "group state is inconsistent")
            del live[i]

    def row(self, st: list) -> tuple:
        """The group's result row: key values, then each aggregate's
        current value.  Built once per change, however often it is read."""
        row = st[ROW]
        if row is None:
            row = st[ROW] = st[GROUP] + tuple(
                [finish(st, *at) for finish, at in self._finish])
        return row
