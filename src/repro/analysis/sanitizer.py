"""Checked execution: runtime conformance monitors for update patterns.

``ExecutionConfig(checked=True)`` (CLI ``--checked``) arms this module.  At
compile time every operator state buffer and the result view's buffer are
wrapped in a :class:`MonitoredBuffer`, and every physical operator's
``process_batch`` / ``expire`` entry points are wrapped with an emission
monitor.  Together they assert, on every tuple, the invariants
the declared update patterns promise (Section 3.1 / 5.2):

* **FIFO expiration for WKS** — state fed by a MONOTONIC/WKS edge must be
  inserted in non-decreasing ``exp`` order (expiry = generation order), and
  its expirations must leave in that same order; the FIFO negation's two
  input queues are held to the same order per side;
* **exp-exact expiration for WK** — a purge may only remove tuples whose
  ``exp`` has passed, and state fed by a non-STR edge must never receive a
  premature (negative-tuple) deletion under direct-style execution;
* **negative-tuple provenance for STR** — an operator may emit negative
  tuples only if its output edge is strict non-monotonic or it runs
  negative-tuple style (NT mode, or the hybrid region above a negation);
* **counter conservation** — for every monitored buffer, at drain time
  ``inserts == expirations + deletions + live``: a structure that loses or
  duplicates tuples is caught even if no individual operation misbehaved.

Violations raise :class:`repro.errors.PatternViolation` naming the operator
and the offending tuple — failing fast at the first non-conforming step
instead of corrupting answers silently.  The monitors never touch the
shared :class:`~repro.core.metrics.Counters`, so checked runs produce
byte-identical answers, output streams and counter values (asserted by the
equivalence tests); only wall-clock time changes.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Hashable, Iterable, Iterator

from ..buffers.base import StateBuffer
from ..core.patterns import STR, UpdatePattern
from ..core.tuples import Tuple
from ..errors import PatternViolation


class SanitizerState:
    """Mutable context shared by all monitors of one compiled pipeline."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now: float = -math.inf


class MonitoredBuffer(StateBuffer):  # type: ignore[misc]
    """A pattern-conformance proxy around any :class:`StateBuffer`.

    Mutations are checked against the update pattern of the feeding edge;
    reads (``probe``/``live``/iteration) delegate directly to the inner
    buffer so counter charges are identical to unchecked execution.

    When a state-bound certificate is attached
    (:func:`repro.analysis.bounds.attach_certificate`), the monitor also
    tracks — per positive insert — the observed occupancy against the
    certified horizon; see :meth:`arm_certificate`.
    """

    #: Certificate tracking is off until arm_certificate() is called
    #: (class-level default so unarmed monitors pay one attribute read).
    cert_armed = False

    def __init__(self, inner: StateBuffer, pattern: UpdatePattern,
                 label: str, nt_style: bool,
                 state: SanitizerState) -> None:
        # Deliberately no super().__init__: the proxy owns no counters and
        # no key index of its own — everything lives in ``inner``.
        self.inner = inner
        self.pattern = pattern
        self.label = label
        self.nt_style = nt_style
        self.state = state
        self.inserted = 0
        self.expired = 0
        self.deleted = 0
        self._last_exp = -math.inf

    # -- certificate tracking ------------------------------------------------

    def arm_certificate(self, horizon: float,
                        track_distinct: bool = False) -> None:
        """Start tracking observed occupancy against a certified bound.

        ``horizon`` is the certified maximum lifetime of a stored tuple
        (the plan's largest window span; ``exp <= ts + horizon`` for every
        conforming tuple, because a composite's ``exp`` is the minimum of
        its constituents').  Three observations are maintained per
        positive insert, all O(log n) worst case:

        * a clamped clock estimate ``c`` (largest ``ts`` inserted so far);
        * ``cert_peak_unexpired`` — the peak size of the min-heap of
          pending expirations after dropping entries with ``exp <= c``:
          an upper bound on the slot's live occupancy;
        * ``cert_sliding_peak`` — the peak number of inserts within any
          trailing ``horizon`` extent: the certificate's empirical
          O(window) bound (any tuple live at ``c`` arrived after
          ``c - horizon``, so peak_unexpired <= sliding_peak whenever
          lifetimes conform).

        Inserts outliving the horizon increment
        ``cert_lifetime_violations`` instead of raising immediately, so
        the drain-time validator can report totals.
        """
        self.cert_armed = True
        self.cert_horizon = horizon
        self.cert_peak_unexpired = 0
        self.cert_sliding_peak = 0
        self.cert_lifetime_violations = 0
        self.cert_distinct_values: set[Any] = set()
        self._cert_track_distinct = track_distinct
        self._cert_heap: list[float] = []
        self._cert_window: deque[float] = deque()
        self._cert_clock = -math.inf

    def _cert_track(self, t: Tuple) -> None:
        horizon = self.cert_horizon
        # Check A — certified lifetime: a conforming tuple never outlives
        # one horizon (tolerance absorbs float round-off in ts + span).
        if t.exp - t.ts > horizon + 1e-9 * max(1.0, abs(horizon)):
            self.cert_lifetime_violations += 1
        c = self._cert_clock
        if t.ts > c:
            c = self._cert_clock = t.ts
        heap = self._cert_heap
        heappush(heap, t.exp)
        while heap and heap[0] <= c:
            heappop(heap)
        if len(heap) > self.cert_peak_unexpired:
            self.cert_peak_unexpired = len(heap)
        window = self._cert_window
        # Clock-at-insert stamps are monotone (c only grows), so deque
        # pruning from the left is exact regardless of tuple ts order.
        window.append(c)
        floor = c - horizon
        while window and window[0] <= floor:
            window.popleft()
        if len(window) > self.cert_sliding_peak:
            self.cert_sliding_peak = len(window)
        if self._cert_track_distinct:
            self.cert_distinct_values.add(t.values)

    # -- monitored mutations -------------------------------------------------

    def _check_insert(self, t: Tuple) -> None:
        if t.is_negative:
            raise PatternViolation(
                f"{self.label}: negative tuple {t!r} was inserted as state; "
                "negatives delete, they are never stored")
        if self.pattern.expiration_is_fifo:
            if t.exp < self._last_exp:
                raise PatternViolation(
                    f"{self.label}: non-FIFO insertion into {self.pattern} "
                    f"state — {t!r} expires at {t.exp}, before the already "
                    f"stored tail ({self._last_exp}); WKS expirations must "
                    "follow generation order (Section 3.1)")
            self._last_exp = t.exp
        if self.cert_armed:
            self._cert_track(t)

    def insert(self, t: Tuple) -> None:
        self._check_insert(t)
        self.inserted += 1
        self.inner.insert(t)

    def insert_many(self, tuples: Iterable[Tuple]) -> None:
        tuples = list(tuples)
        for t in tuples:
            self._check_insert(t)
        self.inserted += len(tuples)
        self.inner.insert_many(tuples)

    def delete(self, t: Tuple) -> bool:
        if self.pattern is not STR:
            if not self.nt_style:
                raise PatternViolation(
                    f"{self.label}: premature deletion of {t!r} from state "
                    f"fed by a {self.pattern} edge under direct-style "
                    "execution; non-STR expirations are fully determined by "
                    "exp timestamps and never arrive as negative tuples "
                    "(Section 3.1)")
            if t.exp > self.state.now:
                raise PatternViolation(
                    f"{self.label}: negative tuple for {t!r} deletes state "
                    f"on a {self.pattern} edge before its expiry "
                    f"(exp {t.exp} > now {self.state.now}); only STR edges "
                    "may expire prematurely")
        found = self.inner.delete(t)
        if found:
            self.deleted += 1
        return found

    def purge_expired(self, now: float) -> list[Tuple]:
        if now > self.state.now:
            self.state.now = now
        purged = self.inner.purge_expired(now)
        last = -math.inf
        fifo = self.pattern.expiration_is_fifo
        for t in purged:
            if t.exp > now:
                raise PatternViolation(
                    f"{self.label}: purge at clock {now} expired the live "
                    f"tuple {t!r} (exp {t.exp}); expirations must be "
                    "exp-timestamp-exact")
            if fifo:
                if t.exp < last:
                    raise PatternViolation(
                        f"{self.label}: {self.pattern} state expired out of "
                        f"FIFO order — {t!r} (exp {t.exp}) left after a "
                        f"tuple expiring at {last}")
                last = t.exp
        self.expired += len(purged)
        return purged

    def verify_drain(self) -> None:
        """Counter conservation: inserts = expirations + deletions + live."""
        live = len(self.inner)
        if self.inserted != self.expired + self.deleted + live:
            raise PatternViolation(
                f"{self.label}: counter conservation failed at drain — "
                f"{self.inserted} inserts != {self.expired} expirations + "
                f"{self.deleted} deletions + {live} live tuples; the "
                "structure lost or duplicated state")

    # -- delegated reads (identical counter charges) --------------------------

    def next_expiry(self, now: float) -> float:
        return self.inner.next_expiry(now)

    def probe(self, key: Hashable, now: float) -> list[Tuple]:
        return self.inner.probe(key, now)

    def probe_all(self, key: Hashable) -> list[Tuple]:
        return self.inner.probe_all(key)

    def live(self, now: float) -> Iterator[Tuple]:
        return self.inner.live(now)

    def _bucket(self, key: Hashable) -> Iterable[Tuple]:
        return self.inner._bucket(key)

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.inner)

    @property
    def counters(self) -> Any:  # type: ignore[override]
        return self.inner.counters

    @counters.setter
    def counters(self, value: Any) -> None:
        self.inner.counters = value

    @property
    def has_index(self) -> bool:
        return self.inner.has_index

    def __getattr__(self, name: str) -> Any:
        # Structure-specific extras (oldest, partition_sizes, span,
        # n_partitions, _key_of ...) pass straight through.
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return f"Monitored({self.inner!r}, pattern={self.pattern})"


class Sanitizer:
    """Registry of all monitors attached to one compiled pipeline."""

    def __init__(self) -> None:
        self.state = SanitizerState()
        self.buffers: list[MonitoredBuffer] = []
        self.monitored_ops = 0

    def wrap_buffer(self, buffer: StateBuffer, pattern: UpdatePattern,
                    label: str, nt_style: bool) -> MonitoredBuffer:
        """Wrap ``buffer`` in a conformance proxy and register it for the
        drain-time conservation check.  ``pattern`` is the update pattern of
        the edge feeding the buffer; ``nt_style`` says whether the owning
        operator runs negative-tuple style (which legalizes deletions on
        non-STR edges, provided they are expiration-driven)."""
        monitored = MonitoredBuffer(buffer, pattern, label, nt_style,
                                    self.state)
        self.buffers.append(monitored)
        return monitored

    def wrap_operator(self, op: Any, label: str,
                      negatives_allowed: bool) -> None:
        """Intercept the operator's emission points with a provenance
        monitor (instance-attribute shadowing: the class stays untouched,
        the executor's attribute lookups find the wrapper)."""
        state = self.state

        def check(outputs: Any, now: float) -> Any:
            if now > state.now:
                state.now = now
            if not negatives_allowed:
                for t in outputs:
                    if t.is_negative:
                        raise PatternViolation(
                            f"{label}: emitted the negative tuple {t!r}, "
                            "but its output edge is not strict "
                            "non-monotonic and it does not run "
                            "negative-tuple style; negative tuples may "
                            "only originate from STR subplans "
                            "(Section 3.1)")
            return outputs

        orig_batch = op.process_batch
        orig_expire = op.expire

        def process_batch(input_index: int, tuples: Any, now: float,
                          _orig: Any = orig_batch,
                          _check: Any = check) -> Any:
            return _check(_orig(input_index, tuples, now), now)

        def expire(now: float, _orig: Any = orig_expire,
                   _check: Any = check) -> Any:
            return _check(_orig(now), now)

        op.process_batch = process_batch
        op.expire = expire
        for hook in ("on_relation_insert", "on_relation_delete"):
            orig = getattr(op, hook, None)
            if orig is None:
                continue
            def relation_hook(values: Any, now: float, _orig: Any = orig,
                              _check: Any = check) -> Any:
                return _check(_orig(values, now), now)
            setattr(op, hook, relation_hook)
        self.monitored_ops += 1

    def wrap_fifo_arrivals(self, op: Any, label: str) -> None:
        """Check that a FIFO negation's arrivals keep each side in
        non-decreasing ``exp`` order, as :class:`MonitoredBuffer` checks a
        FIFO buffer's inserts: the operator expires each side from the
        head of its queue, so an out-of-order arrival would desynchronize
        its answer silently.  Negatives pass through to the operator,
        which rejects them itself."""
        last_exp = [-math.inf, -math.inf]
        orig = op.process_batch

        def process_batch(input_index: int, tuples: Any, now: float,
                          _orig: Any = orig) -> Any:
            last = last_exp[input_index]
            for t in tuples:
                if t.sign < 0:
                    continue
                if t.exp < last:
                    raise PatternViolation(
                        f"{label}: non-FIFO arrival on input {input_index} "
                        f"of the FIFO negation — {t!r} expires at {t.exp}, "
                        f"before the side's previous arrival ({last}); WKS "
                        "expirations must follow generation order "
                        "(Section 3.1)")
                last = t.exp
            last_exp[input_index] = last
            return _orig(input_index, tuples, now)

        op.process_batch = process_batch

    def verify_drain(self) -> None:
        """Assert counter conservation on every monitored buffer.

        Called once per driver by the engine's one finish
        (:func:`repro.engine.executor.finish_drivers`) after the event
        stream is exhausted.
        """
        for monitored in self.buffers:
            monitored.verify_drain()

    def __repr__(self) -> str:
        return (f"Sanitizer(buffers={len(self.buffers)}, "
                f"ops={self.monitored_ops})")


__all__ = ["MonitoredBuffer", "Sanitizer", "SanitizerState"]
