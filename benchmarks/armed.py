"""Armed vs unarmed: what ``ExecutionConfig(telemetry=True)`` costs.

The eight workload texts of :mod:`benchmarks.e2e.workloads`, each driven
the way the benchmark drives it.  A *pair* replays an unarmed and an armed
query in lockstep — one 1 024-arrival segment each, alternating which
side goes first, so both see the same machine state (the sharded workload
alternates whole runs) — and checks that arming changed neither
``batch_loop()`` nor any counter.  Per workload: median and quartiles of
armed/unarmed over the pairs; a spread (q3 − q1) above 2 % is reported as
unresolved, not as passing.  ``--smoke``: 1 pair, 4 096 arrivals.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from time import perf_counter as clock

from benchmarks.e2e import gen, measure
from benchmarks.e2e.cli import stop_children
from benchmarks.e2e.workloads import WORKLOADS
from repro import ContinuousQuery, ExecutionConfig

SEGMENT = 1024


def pair(w, events: list, armed_first: bool) -> float:
    """One pair's armed/unarmed time ratio."""
    sides = [ContinuousQuery(measure.compile_text(w.text),
                             ExecutionConfig(mode=w.mode, telemetry=armed))
             for armed in (armed_first, not armed_first)]
    spent = [0.0, 0.0]
    if w.shards:
        for i, query in enumerate(sides):
            begin = clock()
            query.run(iter(events), batch=w.batch, shards=w.shards)
            spent[i] = clock() - begin
    else:
        steps = [measure._stepper(w, query, events) for query in sides]
        for n, start in enumerate(range(0, len(events), SEGMENT)):
            for i in ((0, 1), (1, 0))[n % 2]:
                begin = clock()
                steps[i](start, start + SEGMENT)
                spent[i] += clock() - begin
        a, b = (query.executor.driver for query in sides)
        assert a.batch_loop() == b.batch_loop(), w.name
        assert a.compiled.counters.snapshot() == b.compiled.counters.snapshot()
    armed, unarmed = spent if armed_first else reversed(spent)
    return armed / unarmed


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    pairs = 1 if args.smoke else args.pairs
    trace = gen.generate(args.seed, 4096 if args.smoke else gen.FULL_TRACE)
    print(f"seed {args.seed}, {pairs} pair(s): workload, median, q1, q3")
    try:
        for w in WORKLOADS:
            events = trace[:w.arrivals]
            ratios = sorted(pair(w, events, armed_first=bool(n % 2))
                            for n in range(pairs))
            q1, median, q3 = (statistics.quantiles(ratios, n=4)
                              if pairs > 1 else ratios * 3)
            verdict = ("one pair: same loop and counters, timing is noise"
                       if args.smoke
                       else "unresolved (spread > 2 %)" if q3 - q1 > 0.02
                       else "within 1.02" if median <= 1.02 else "over 1.02")
            print(f"{w.name:<18}{median:>8.3f}{q1:>8.3f}{q3:>8.3f}  {verdict}",
                  flush=True)
    finally:
        stop_children()  # the sharded workload's resource tracker


if __name__ == "__main__":
    sys.exit(main())
