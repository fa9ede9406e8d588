"""Keyed store for group-by results.

Section 5.3.2: "the result consists of aggregate values for each group and
can be stored as an array, indexed by group label."  Group-by output is
always WK (Rule 4): a new result for a group *replaces* the previous result
for that group without a negative tuple, so the natural structure is a map
from group key to the latest result tuple.  A group whose last input tuple
expired is removed (relational semantics: the group disappears).
"""

from __future__ import annotations

from typing import Hashable, Iterator

from ..core.tuples import Tuple
from ..core.metrics import Counters, NULL_COUNTERS


class GroupStore:
    """Map from group key to the group's current aggregate result tuple."""

    def __init__(self, counters: Counters | None = None):
        self.counters = counters if counters is not None else NULL_COUNTERS
        self._groups: dict[Hashable, Tuple] = {}

    def replace(self, group_key: Hashable, result: Tuple | None) -> None:
        """Install the newest result for a group; ``None`` deletes the group."""
        self.counters.touches += 1
        if result is None:
            self._groups.pop(group_key, None)
            self.counters.deletes += 1
        else:
            self._groups[group_key] = result
            self.counters.inserts += 1

    def get(self, group_key: Hashable) -> Tuple | None:
        return self._groups.get(group_key)

    def snapshot(self) -> dict[Hashable, Tuple]:
        """Copy of the current group → result mapping."""
        return dict(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._groups.values())

    def __contains__(self, group_key: Hashable) -> bool:
        return group_key in self._groups

    def __repr__(self) -> str:
        return f"GroupStore(groups={len(self._groups)})"
