"""A sharing ``QueryGroup`` against precompiled members: cost and savings.

Two shapes at W=400 over 20 000 arrivals: E12's four-query mix
(``benchmarks/test_multi_sharing.py``: Query 1 ftp, Query 1 telnet,
Query 2, Query 4), whose repeats share whole plans, and the fan-out
σ(l_protocol = pᵢ)(link0 ⋈ link1), whose members share one join below
private selections.  Under UPA the mix runs at N ∈ {4, 16} and the fan-out
at N ∈ {4, 6}, per tuple and at ``batch=64``; under DIRECT and NT both run
at N=4 and ``batch=64``, where a producer's batch loop must amortize its
expiration as its members' do (per tuple, a producer is exactly one
query's per-tuple work).  The baseline is a group of precompiled
members (the group did not compile them, so it shares nothing).  A *pair*
runs one sharing and one baseline group over the same trace in this
process, alternating which goes first; per cell: median and quartiles of
the shared/baseline wall-time ratio over the pairs, then of each side's
own ms per 1 000 arrivals (so a ratio cannot improve through a slower
denominator unnoticed), beside the touch and state totals.  A cell whose
ratio quartiles straddle 1.0 is reported as unresolved, not as a win or a
loss.  To measure another checkout with identical code, copy this file,
``test_multi_sharing.py``, ``experiments.py`` and ``reeval.py`` into its
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import gc
import statistics
from time import perf_counter as clock

from benchmarks.experiments import BENCH_TRAFFIC, make_generator
from benchmarks.test_multi_sharing import FANOUT, MIX, build_group
from repro import Mode

WINDOW = 400
ARRIVALS = 20_000
#: (shape, mix, N, mode, batch sizes) per cell.
CELLS = (("mix", MIX, 4, Mode.UPA, (None, 64)),
         ("mix", MIX, 16, Mode.UPA, (None, 64)),
         ("fan-out", FANOUT, 4, Mode.UPA, (None, 64)),
         ("fan-out", FANOUT, 6, Mode.UPA, (None, 64)),
         ("mix", MIX, 4, Mode.DIRECT, (64,)),
         ("fan-out", FANOUT, 4, Mode.DIRECT, (64,)),
         ("mix", MIX, 4, Mode.NT, (64,)),
         ("fan-out", FANOUT, 4, Mode.NT, (64,)))


def run(n: int, shared: bool, batch: int | None, events: list, mix,
        mode: Mode):
    """(seconds, total touches, total state, producers) of one fresh
    group's run."""
    group = build_group(n, shared, WINDOW, mix, mode)
    group.shared_producers()  # seal (plan + compile) outside the timer
    gc.collect()
    begin = clock()
    result = group.run(iter(events), batch=batch)
    return (clock() - begin, result.total_touches(),
            group.total_state_size(), len(group.shared_producers()))


def spread(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.3f} [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    pairs = parser.parse_args(argv).pairs
    events = list(make_generator(BENCH_TRAFFIC).events(ARRIVALS))
    print(f"{'cell':<33}{'shared/baseline':>22}{'shared ms/1k':>28}"
          f"{'baseline ms/1k':>28}{'touches':>10}{'baseline':>10}"
          f"{'state':>8}{'baseline':>10}{'producers':>11}")
    for shape, mix, n, mode, batches in CELLS:
        for batch in batches:
            ms = {True: [], False: []}
            stats = {}
            for index in range(pairs):
                for shared in ((True, False), (False, True))[index % 2]:
                    seconds, *stats[shared] = run(n, shared, batch, events,
                                                  mix, mode)
                    ms[shared].append(seconds * 1e6 / ARRIVALS)
            ratios = [a / b for a, b in zip(ms[True], ms[False])]
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            note = "  unresolved vs 1.0" if q1 <= 1.0 <= q3 else ""
            cell = f"{mode.value} {shape} N={n} " + (
                "per-tuple" if batch is None else f"batch={batch}")
            (touches, state, producers) = stats[True]
            (alone, alone_state, _) = stats[False]
            print(f"{cell:<33}{spread(ratios):>22}{spread(ms[True]):>28}"
                  f"{spread(ms[False]):>28}{touches:>10}{alone:>10}"
                  f"{state:>8}{alone_state:>10}{producers:>11}{note}",
                  flush=True)


if __name__ == "__main__":
    main()
