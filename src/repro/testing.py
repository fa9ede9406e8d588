"""Public testing utilities for downstream users of the library.

Anyone extending the engine (new operators, new buffers, new strategies)
needs the same correctness oracle this repository's own test suite is built
on: Definition 1 says the materialized answer must always equal a one-time
relational evaluation over the current window contents.  These helpers
package that check:

    from repro.testing import assert_equivalent, check_plan

    assert_equivalent(plan, events, modes=[Mode.NT, Mode.UPA])

:func:`reference_step` is the other reference: Section 2's event loop as a
plain interpreter, for checking a driver's compiled loops event by event.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core.plan import LogicalNode
from .core.semantics import ReferenceEvaluator
from .engine.query import ContinuousQuery
from .engine.strategies import ExecutionConfig, Mode
from .errors import ExecutionError
from .operators.stateless import PortOp
from .streams.stream import Arrival, Event, RelationUpdate


class EquivalenceError(AssertionError):
    """The engine's materialized answer diverged from the oracle."""


def check_plan(plan: LogicalNode, events: Iterable[Event], mode: Mode,
               **config_kwargs) -> int:
    """Run ``plan`` under ``mode`` and compare against the oracle after
    every event.  Returns the number of comparisons performed; raises
    :class:`EquivalenceError` with full context on the first divergence.
    """
    query = ContinuousQuery(plan, ExecutionConfig(mode=mode,
                                                  **config_kwargs))
    oracle = ReferenceEvaluator()
    comparisons = 0
    for event in events:
        query.executor.process_event(event)
        oracle.observe(event)
        got = query.answer()
        want = oracle.evaluate(plan, query.executor.now)
        comparisons += 1
        if got != want:
            raise EquivalenceError(
                f"Definition 1 violated under mode={mode.value} "
                f"(config {config_kwargs}) after {event!r}:\n"
                f"  engine: {dict(got)}\n"
                f"  oracle: {dict(want)}\n"
                f"  plan:   {plan!r}"
            )
    return comparisons


def assert_equivalent(plan: LogicalNode, events: Sequence[Event],
                      modes: Sequence[Mode] = (Mode.NT, Mode.DIRECT,
                                               Mode.UPA),
                      **config_kwargs) -> None:
    """Check Definition 1 under every given mode over the same events.

    Modes that reject the plan (e.g. DIRECT for strict non-monotonic
    queries) are skipped silently, mirroring the planner's own rules.
    """
    from .errors import PlanError

    for mode in modes:
        try:
            check_plan(plan, list(events), mode, **config_kwargs)
        except PlanError:
            continue


def answers_agree(plan_factory, events: Sequence[Event],
                  modes: Sequence[Mode] = (Mode.NT, Mode.DIRECT, Mode.UPA),
                  **config_kwargs) -> bool:
    """Do all (applicable) strategies produce identical final answers?

    ``plan_factory`` is called once per mode, because compiled plans own
    their physical state.
    """
    from .errors import PlanError

    answers = []
    for mode in modes:
        try:
            query = ContinuousQuery(plan_factory(),
                                    ExecutionConfig(mode=mode,
                                                    **config_kwargs))
        except PlanError:
            continue
        query.run(list(events))
        answers.append(query.answer())
    return all(a == answers[0] for a in answers[1:]) if answers else True


def reference_step(driver, event: Event) -> None:
    """Process one event on ``driver`` by Section 2's model, interpreted
    over ``driver.compiled``: advance the clock, run the full bottom-up
    expiration pass (each operator's emissions pushed to the root before
    the next operator expires, so parents observe deletions in order),
    dispatch the event, let lazily-maintained operators purge.

    No runtime calls this; it is what the driver's compiled loops are
    tested against — answers, output stream and every counter must equal
    ``driver.process_event(event)``'s.  It shares with them only the
    compiled query's routes and participant lists, the operators'
    ``process_batch`` / ``expire`` and the driver's clock, relation-update
    and lazy-purge steps.
    """
    compiled = driver.compiled
    view = compiled.view
    now = driver._clock_for(event)
    if now < driver.now:
        raise ExecutionError(
            f"out-of-order event: ts {now} after clock {driver.now} "
            "(the model assumes non-decreasing timestamps, Section 2)")
    driver.now = now
    driver._events_processed += 1

    def propagate(source, outputs) -> None:
        for parent, slot in compiled.routes[id(source)]:
            if not outputs:
                return
            outputs = parent.process_batch(slot, outputs, now)
        if outputs:
            view.deliver(outputs, now, driver._subscribers)

    for op in compiled.expire_ops:
        propagate(op, op.expire(now))
    view.purge(now)
    if isinstance(event, Arrival):
        driver._tuples_arrived += 1
        for leaf in compiled.leaf_bindings.get(event.stream, ()):
            if isinstance(leaf, PortOp):
                # A shared subtree reads this stream: replay its output.
                propagate(leaf, list(leaf.pull()))
            else:
                # ``now`` is already in the stamping domain (the event
                # timestamp, or the count-stream's sequence number).
                stamped = leaf.stamp(event.values, now, now)
                propagate(leaf, leaf.process_batch(0, [stamped], now))
    elif isinstance(event, RelationUpdate):
        driver._dispatch_relation_update(event, now)
    driver._maybe_lazy_purge(now)
