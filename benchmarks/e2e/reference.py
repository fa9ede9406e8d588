"""Plain-Python Definition-1 answers for the workload queries.

"At any time tau, Q(tau) must equal the output of the corresponding
one-time relational query over the current window contents."  For each
workload this module computes that answer directly from the raw arrivals
with ``ts <= now < ts + W`` — no plan, no engine code — so the benchmark
checks delivered answers against something the program cannot influence.

MINUS answers are compared projected on ``src_ip`` as ``max(n1 - n2, 0)``:
Equation 1 leaves the choice of surviving left tuples open (see
``repro/core/semantics.py``).  Group-by compares COUNT and SUM exactly
and AVG to a relative tolerance of 1e-9.

``python -m benchmarks.e2e.reference`` runs the self-test: on a short
prefix of every workload it agrees with ``repro.ReferenceEvaluator``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter

from .gen import FIELDS, STREAMS, WINDOW, generate

_PROTOCOL = FIELDS.index("protocol")
_BYTES = FIELDS.index("bytes")
_SRC = FIELDS.index("src_ip")
_DST = FIELDS.index("dst_ip")


class Reference:
    """Window snapshots over the raw trace, and one answer per workload."""

    def __init__(self, trace: list):
        self._ts: dict[str, list] = {name: [] for name in STREAMS}
        self._exp: dict[str, list] = {name: [] for name in STREAMS}
        self._values: dict[str, list] = {name: [] for name in STREAMS}
        for event in trace:
            self._ts[event.stream].append(event.ts)
            self._exp[event.stream].append(event.ts + WINDOW)
            self._values[event.stream].append(event.values)

    def window(self, stream: str, now: float) -> list:
        """Values of the stream's arrivals with ``ts <= now < ts + W``."""
        return self._values[stream][
            bisect_right(self._exp[stream], now):
            bisect_right(self._ts[stream], now)]

    # -- one-time answers ------------------------------------------------------

    def _query1(self, now: float, protocol: str) -> Counter:
        right: dict = {}
        for values in self.window("link1", now):
            if values[_PROTOCOL] == protocol:
                right.setdefault(values[_SRC], []).append(values)
        out: Counter = Counter()
        for values in self.window("link0", now):
            if values[_PROTOCOL] == protocol:
                for match in right.get(values[_SRC], ()):
                    out[values + match] += 1
        return out

    def _pairs(self, now: float) -> Counter:
        return Counter({(values[_SRC], values[_DST]): 1
                        for values in self.window("link0", now)})

    def _minus(self, now: float) -> Counter:
        left = Counter(values[_SRC] for values in self.window("link0", now))
        right = Counter(values[_SRC] for values in self.window("link1", now))
        return +Counter({src: n - right[src] for src, n in left.items()})

    def _query4(self, now: float) -> Counter:
        left = {values[_SRC] for values in self.window("link0", now)}
        right = {values[_SRC] for values in self.window("link1", now)}
        return Counter({(src, src): 1 for src in left & right})

    def _groups(self, now: float) -> dict:
        groups: dict = {}
        for values in self.window("link0", now):
            group = groups.setdefault(values[_SRC], [0, 0])
            group[0] += 1
            group[1] += values[_BYTES]
        return groups

    # -- comparison ------------------------------------------------------------

    def matches(self, workload: str, now: float, answer: Counter) -> bool:
        """Is ``answer`` the Definition-1 answer of ``workload`` at ``now``?"""
        if workload == "q1_ftp":
            return answer == self._query1(now, "ftp")
        if workload.startswith("q1_telnet"):
            return answer == self._query1(now, "telnet")
        if workload == "q2_pairs_pt":
            return answer == self._pairs(now)
        if workload == "q3_neg":
            projected: Counter = Counter()
            for values, count in answer.items():
                projected[values[_SRC]] += count
            return projected == self._minus(now)
        if workload == "q4_nt":
            return answer == self._query4(now)
        if workload == "grp_src":
            groups = self._groups(now)
            if len(answer) != len(groups) or set(answer.values()) - {1}:
                return False
            for src, count, total, mean in answer:
                expected = groups.get(src)
                if expected is None or [count, total] != expected \
                        or not math.isclose(mean, total / count,
                                            rel_tol=1e-9):
                    return False
            return True
        raise KeyError(f"no reference for workload {workload!r}")


def self_test(seed: int = 42, arrivals: int = 8000,
              every: int = 2000) -> int:
    """Compare against ``repro.ReferenceEvaluator`` every ``every``
    arrivals of a short prefix (the first instant is inside the first
    window, the later ones after expirations began); returns the number
    of comparisons made, raises ``AssertionError`` on a mismatch."""
    from repro import ReferenceEvaluator

    from .measure import compile_text
    from .workloads import WORKLOADS

    trace = generate(seed, arrivals)
    reference = Reference(trace)
    oracle = ReferenceEvaluator()
    plans = {w.name: compile_text(w.text) for w in WORKLOADS}
    compared = 0
    for position, event in enumerate(trace, start=1):
        oracle.observe(event)
        if position % every:
            continue
        for name, plan in plans.items():
            if not reference.matches(name, event.ts,
                                     oracle.evaluate(plan, event.ts)):
                raise AssertionError(
                    f"{name}: benchmark reference disagrees with "
                    f"ReferenceEvaluator at arrival {position}")
            compared += 1
    return compared


if __name__ == "__main__":
    print(f"reference self-test: {self_test()} comparisons agree with "
          "repro.ReferenceEvaluator")
