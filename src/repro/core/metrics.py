"""Deterministic performance counters.

Pure-Python wall-clock timings are noisy and not comparable to the paper's
2005 testbed, so alongside elapsed time the engine counts *state touches*:
every element examined, moved, inserted or removed inside a state buffer or
result view.  Touch counts are deterministic for a given trace and expose the
asymptotic differences between the strategies (e.g. DIRECT's sequential scans
versus UPA's partition drops) independently of interpreter overhead.
"""

from __future__ import annotations

from typing import Iterable


class Counters:
    """Mutable bag of engine counters, shared by buffers and operators."""

    __slots__ = (
        "touches",
        "inserts",
        "deletes",
        "expirations",
        "probes",
        "tuples_processed",
        "negatives_processed",
        "results_produced",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.touches = 0
        self.inserts = 0
        self.deletes = 0
        self.expirations = 0
        self.probes = 0
        self.tuples_processed = 0
        self.negatives_processed = 0
        self.results_produced = 0

    def snapshot(self) -> dict[str, int]:
        """A plain dict copy of the current counter values."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def total(cls, snapshots: Iterable[dict[str, int]]) -> "Counters":
        """A new bag holding the field-wise sum of ``snapshots`` (shard
        replicas', a group's producers')."""
        total = cls()
        for snapshot in snapshots:
            for name, value in snapshot.items():
                setattr(total, name, getattr(total, name) + value)
        return total

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"Counters({inner})"


class NullCounters(Counters):
    """Write-discarding counter sink (the null-object pattern).

    Buffers, operators and views created without an explicit
    :class:`Counters` fall back to this sink.  Historically the fallback was
    a shared *mutable* ``Counters`` instance, so every standalone buffer in
    a process silently accumulated into the same bag — cross-contaminating
    counts between unrelated buffers and between tests.  A null sink reads
    as permanently zero and discards every write, so sharing one instance
    is safe; callers that care about counts pass their own ``Counters``.
    """

    __slots__ = ()

    def __init__(self) -> None:
        # The slots must exist for reads (`counters.touches += 1` reads
        # before it writes); bypass the discarding __setattr__ once.
        for name in Counters.__slots__:
            object.__setattr__(self, name, 0)

    def __setattr__(self, name: str, value) -> None:
        if name not in Counters.__slots__:  # pragma: no cover - misuse guard
            raise AttributeError(name)
        # Discard: a null sink never accumulates.

    def reset(self) -> None:
        """Already permanently zero."""


#: Shared do-nothing sink for buffers created outside an engine run.  Writes
#: are discarded (see :class:`NullCounters`), so the shared instance cannot
#: alias state between unrelated buffers; tests that care about counts pass
#: their own :class:`Counters` instance.
NULL_COUNTERS = NullCounters()
