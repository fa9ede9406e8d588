"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

from hypothesis import settings
import pytest

from repro import (
    Arrival,
    ContinuousQuery,
    ExecutionConfig,
    Mode,
    ReferenceEvaluator,
    Schema,
    StreamDef,
    Tick,
    TimeWindow,
)
from repro.operators.aggregates import GroupSlots

# Reproducible property tests, selected by ``HYPOTHESIS_PROFILE``.  ``ci``
# (set in every CI job) derives the examples from each test's source
# instead of the clock and keeps no example database, so a red run is red
# again on re-run.  ``seeded`` is for the workflow's seed sweep, which hunts
# latent divergences with ``--hypothesis-seed=N``: hypothesis ignores that
# flag under ``derandomize``, so the sweep needs a profile without it.
settings.register_profile("ci", derandomize=True, database=None,
                          deadline=None)
settings.register_profile("seeded", database=None, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: A single-attribute schema: negation results are unambiguous over it, so
#: the oracle comparison is exact for every operator (see semantics docs).
V_SCHEMA = Schema(["v"])

ALL_MODES = (Mode.NT, Mode.DIRECT, Mode.UPA)
#: Modes that support strict non-monotonic plans.
STRICT_MODES = (Mode.NT, Mode.UPA)


@pytest.fixture
def s0():
    return StreamDef("s0", V_SCHEMA, TimeWindow(8))


@pytest.fixture
def s1():
    return StreamDef("s1", V_SCHEMA, TimeWindow(8))


def all_subclasses(cls) -> set:
    """Every direct and indirect subclass of ``cls`` imported so far."""
    return {sub for direct in cls.__subclasses__()
            for sub in (direct, *all_subclasses(direct))}


class SlotAggregate:
    """One aggregate kind over one group's slots, driven value by value
    through the engine's fold (``GroupSlots``) and read by its finalizer."""

    def __init__(self, kind: str):
        self._slots = GroupSlots((kind,), (0,))
        self._st = self._slots.new(())

    def insert(self, value) -> None:
        self._slots.fold(self._st, (value,), True)

    def remove(self, value) -> None:
        self._slots.fold(self._st, (value,), False)

    def current(self):
        (value,) = self._slots.row(self._st)
        return value


def stream_pair(window: float = 8) -> tuple[StreamDef, StreamDef]:
    return (StreamDef("s0", V_SCHEMA, TimeWindow(window)),
            StreamDef("s1", V_SCHEMA, TimeWindow(window)))


def random_arrivals(n: int = 150, n_streams: int = 2, vmax: int = 5,
                    seed: int = 0, drain: float = 100.0) -> list:
    """A deterministic random event sequence over single-attribute streams,
    ending with a Tick that drains every window."""
    rng = random.Random(seed)
    events = []
    ts = 0.0
    for _ in range(n):
        ts += rng.choice([0.25, 0.5, 1.0, 2.0])
        stream = f"s{rng.randrange(n_streams)}"
        events.append(Arrival(ts, stream, (rng.randrange(vmax),)))
    events.append(Tick(ts + drain))
    return events


def assert_matches_oracle(plan, events, mode: Mode, **config_kwargs) -> None:
    """Run ``plan`` under ``mode`` and compare the materialized answer with
    the relational oracle after *every* event (Definition 1)."""
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode, **config_kwargs))
    oracle = ReferenceEvaluator()
    mismatches: list[str] = []

    def check(executor, event):
        oracle.observe(event)
        got = query.answer()
        want = oracle.evaluate(plan, executor.now)
        if got != want and not mismatches:
            mismatches.append(
                f"after {event!r} (mode={mode.value}, cfg={config_kwargs}):\n"
                f"  engine: {dict(got)}\n  oracle: {dict(want)}"
            )

    query.run(list(events), on_event=check)
    assert not mismatches, mismatches[0]


def run_answer(plan, events, mode: Mode, **config_kwargs):
    """Run to completion and return the final answer multiset."""
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode, **config_kwargs))
    result = query.run(list(events))
    return result.answer()
