"""Shared vs independent ``QueryGroup``: what sharing costs and saves.

E12's four-query mix (``benchmarks/test_multi_sharing.py``: Query 1 ftp,
Query 1 telnet, Query 2, Query 4) under UPA at W=400 over 20 000 arrivals,
scaled to N ∈ {4, 16} members, per-tuple and at ``batch=64``.  A *pair*
runs one shared and one independent group over the same trace in this
process, alternating which goes first; per cell: median and quartiles of
the shared/independent wall-time ratio over the pairs, then of each side's
own ms per 1 000 arrivals (so a ratio cannot improve through a slower
denominator unnoticed), beside the touch totals.  A cell whose ratio
quartiles straddle 1.0 is reported as unresolved, not as a win or a loss.
To measure another checkout with identical code, copy this file into its
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import gc
import statistics
from time import perf_counter as clock

from benchmarks.common import BENCH_TRAFFIC, make_generator
from benchmarks.test_multi_sharing import MIX
from repro import ExecutionConfig, Mode, QueryGroup

WINDOW = 400
ARRIVALS = 20_000


def run(n: int, shared: bool, batch: int | None, events: list):
    """(seconds, total touches, producers) of one fresh group's run."""
    gen = make_generator()
    group = QueryGroup(shared=shared)
    for index in range(n):
        group.add(f"q{index}", MIX[index % len(MIX)](gen, WINDOW),
                  ExecutionConfig(mode=Mode.UPA))
    group.shared_producers()  # seal (plan + compile) outside the timer
    gc.collect()
    begin = clock()
    result = group.run(iter(events), batch=batch)
    return (clock() - begin, result.total_touches(),
            len(group.shared_producers()))


def spread(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.3f} [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    pairs = parser.parse_args(argv).pairs
    events = list(make_generator(BENCH_TRAFFIC).events(ARRIVALS))
    print(f"{'cell':<16}{'shared/independent':>22}{'shared ms/1k':>26}"
          f"{'independent ms/1k':>26}{'shared touches':>16}"
          f"{'independent':>13}{'producers':>11}")
    for n in (4, 16):
        for batch in (None, 64):
            ms = {True: [], False: []}
            stats = {}
            for index in range(pairs):
                for shared in ((True, False), (False, True))[index % 2]:
                    seconds, *stats[shared] = run(n, shared, batch, events)
                    ms[shared].append(seconds * 1e6 / ARRIVALS)
            ratios = [a / b for a, b in zip(ms[True], ms[False])]
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            note = "  unresolved vs 1.0" if q1 <= 1.0 <= q3 else ""
            cell = f"N={n} " + ("per-tuple" if batch is None
                                else f"batch={batch}")
            (touches, producers), (alone, _) = stats[True], stats[False]
            print(f"{cell:<16}{spread(ratios):>22}{spread(ms[True]):>26}"
                  f"{spread(ms[False]):>26}{touches:>16}{alone:>13}"
                  f"{producers:>11}{note}")


if __name__ == "__main__":
    main()
