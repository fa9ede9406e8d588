"""The paper's evaluation (§6, Figures 9–15) and the ablations beside it.

One measurer times every figure: :func:`paired_sweep` runs each strategy
once per *pair* at every grid point (plan × source-IP overlap × window ×
batch size), alternating the order pair by pair, and raises if two
strategies disagree on the answer.  :func:`print_sweep` gives each
strategy's median and interquartile range of ms per 1 000 tuples (the
paper's metric), its deterministic state touches per tuple, and how it
fares against the first strategy.  E8 (cost model) and E10 (memory) call
``ContinuousQuery`` directly.

    python -m benchmarks.experiments [exp ...] [--quick]

runs the named experiments (default ``all``).  ``--quick`` is one pair
over :data:`QUICK_WINDOWS`; otherwise :data:`PAIRS` pairs over
:data:`FULL_WINDOWS` (E4 over its own grid).  Experiments at one window
use :data:`ONE_WINDOW` either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
from typing import Callable

from repro import ContinuousQuery, ExecutionConfig, Mode
from repro.core.cost import Catalog, CostModel
from repro.core.plan import LogicalNode
from repro.workloads import (
    TrafficConfig,
    TrafficTraceGenerator,
    query1,
    query2,
    query3,
    query4,
    query5_pullup,
    query5_pushdown,
)

from .reeval import ReEvaluationQuery

FULL_WINDOWS = (100, 200, 400, 800)
QUICK_WINDOWS = (50, 100, 200)
ONE_WINDOW = 400
#: Alternating pairs per grid point outside ``--quick`` (§8's protocol).
PAIRS = 10
SPAN_FACTOR = 3  # a trace covers three window lengths: fill + steady state

#: Workload of every experiment unless stated otherwise: a denser IP pool
#: than the generator default so joins have realistic fan-out.
BENCH_TRAFFIC = TrafficConfig(n_links=4, n_src_ips=150, seed=42)

_TRACE_CACHE: dict[tuple, list] = {}


def make_generator(config: TrafficConfig = BENCH_TRAFFIC
                   ) -> TrafficTraceGenerator:
    return TrafficTraceGenerator(config)


def trace_for(window: float, config: TrafficConfig = BENCH_TRAFFIC) -> list:
    """The (cached) event list sized for ``window``: ``SPAN_FACTOR`` window
    lengths on every link at the configured rate."""
    n_events = int(SPAN_FACTOR * window * config.n_links
                   / config.mean_interarrival)
    # Keyed on the config's values (its protocol mix is a dict).
    key = (config.n_links, config.n_src_ips, config.n_dst_per_link,
           config.zipf_s, config.mean_interarrival, config.ip_overlap,
           tuple(sorted(config.protocol_mix.items())), config.seed, n_events)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = list(TrafficTraceGenerator(config).events(n_events))
    return _TRACE_CACHE[key]


#: A strategy: its label and a function from a plan to a fresh query whose
#: ``run(events, batch=...)`` returns a result with ``time_per_1000()``,
#: ``touches_per_tuple()`` and ``answer()``.
Strategy = tuple[str, Callable[[LogicalNode], object]]
#: A plan: its label and a function of (trace generator, window).
Plan = tuple[str, Callable[[TrafficTraceGenerator, float], LogicalNode]]


def strategy(label: str, **config) -> Strategy:
    """A ``ContinuousQuery`` under ``ExecutionConfig(**config)``."""
    return label, lambda plan: ContinuousQuery(plan, ExecutionConfig(**config))


ALL_MODES = [strategy(m.value.upper(), mode=m)
             for m in (Mode.NT, Mode.DIRECT, Mode.UPA)]
#: DIRECT cannot maintain STR results (Section 3.1).
STRICT_MODES = [ALL_MODES[0], ALL_MODES[2]]


@dataclasses.dataclass
class SweepPoint:
    """One grid point: every strategy's ms/1k over alternating pairs."""

    plan: str
    overlap: float
    window: float
    batch: int | None
    #: label -> ms/1k of each run, in pair order.
    runs: dict[str, list[float]]
    #: label -> deterministic state touches per stream tuple.
    touches: dict[str, float]

    def median(self, label: str) -> float:
        return statistics.median(self.runs[label])

    def iqr(self, label: str) -> float:
        if len(self.runs[label]) < 2:
            return 0.0
        q1, _q2, q3 = statistics.quantiles(self.runs[label], n=4)
        return q3 - q1

    def wins(self, label: str, over: str) -> int:
        """Pairs in which ``label`` ran faster than ``over``."""
        return sum(a < b for a, b in zip(self.runs[label], self.runs[over]))

    def resolved_win(self, label: str, over: str) -> bool:
        """§8's rule: over at least ten pairs, ``label`` wins nine in ten,
        by a median gap larger than ``over``'s interquartile range."""
        n = len(self.runs[label])
        return (n >= 10 and 10 * self.wins(label, over) >= 9 * n
                and self.median(over) - self.median(label) > self.iqr(over))


def paired_sweep(plans: list[Plan], strategies: list[Strategy], pairs: int,
                 overlaps: tuple[float, ...] = (BENCH_TRAFFIC.ip_overlap,),
                 windows: tuple[float, ...] = FULL_WINDOWS,
                 batches: tuple[int | None, ...] = (None,)
                 ) -> list[SweepPoint]:
    """Run every strategy ``pairs`` times per grid point, alternating the
    order each round, and check that all strategies give one answer."""
    points: list[SweepPoint] = []
    for name, plan_fn in plans:
        for overlap in overlaps:
            config = dataclasses.replace(BENCH_TRAFFIC, ip_overlap=overlap)
            gen = make_generator(config)
            for window in windows:
                events = trace_for(window, config)
                for batch in batches:
                    point = SweepPoint(name, overlap, window, batch,
                                       {label: [] for label, _ in strategies},
                                       {})
                    answers = {}
                    for rep in range(pairs):
                        order = strategies if rep % 2 == 0 else strategies[::-1]
                        for label, make_query in order:
                            query = make_query(plan_fn(gen, window))
                            result = query.run(iter(events), batch=batch)
                            point.runs[label].append(
                                result.time_per_1000() * 1000.0)
                            point.touches[label] = result.touches_per_tuple()
                            answers[label] = dict(result.answer())
                    if any(a != answers[strategies[0][0]]
                           for a in answers.values()):
                        raise AssertionError(
                            f"{name} overlap={overlap} W={window} "
                            f"batch={batch}: strategies disagree")
                    points.append(point)
    return points


def print_sweep(title: str, points: list[SweepPoint]) -> None:
    """One row per (grid point, strategy): median and IQR of ms/1k, touches
    per tuple, then against the first strategy: the ratio of medians, the
    pairs won and whether that win is resolved."""
    print(f"\n== {title} ==")
    labels = list(points[0].runs)
    ref = labels[0]
    print(f"{'plan':<10}{'ovl':>5}{'W':>6}{'batch':>6}  {'strategy':<14}"
          f"{'median':>8}{'IQR':>7}{'tch/tup':>10}{'÷ ' + ref:>11}"
          f"{'won':>7}{'res':>5}")
    for p in points:
        for label in labels:
            row = (f"{p.plan:<10}{p.overlap:>5g}{p.window:>6g}"
                   f"{p.batch or '-':>6}  {label:<14}"
                   f"{p.median(label):>8.2f}{p.iqr(label):>7.2f}"
                   f"{p.touches[label]:>10.1f}")
            if label != ref:
                row += (f"{p.median(label) / p.median(ref):>11.2f}"
                        f"{p.wins(label, ref):>4}/{len(p.runs[label]):<2}"
                        f"{'yes' if p.resolved_win(label, ref) else 'no':>5}")
            print(row)


def figure(title: str, plans: list[Plan], strategies: list[Strategy],
           pairs: int, **grid) -> list[SweepPoint]:
    """:func:`paired_sweep`, then its table."""
    points = paired_sweep(plans, strategies, pairs, **grid)
    print_sweep(f"{title} — ms/1k over {pairs} alternating pair(s)", points)
    return points


def _grid(quick: bool) -> tuple[int, tuple[int, ...]]:
    return (1, QUICK_WINDOWS) if quick else (PAIRS, FULL_WINDOWS)


def e1_query1_ftp(quick: bool = False) -> list[SweepPoint]:
    """Figure 9: Query 1 with the selective ftp predicate."""
    pairs, windows = _grid(quick)
    return figure("E1 / Fig 9 — Query 1 (ftp join)",
                  [("Q1-ftp", lambda gen, w: query1(gen, w, "ftp"))],
                  ALL_MODES, pairs, windows=windows)


def e2_query1_telnet(quick: bool = False) -> list[SweepPoint]:
    """Figure 10: Query 1 with the high-output telnet predicate."""
    pairs, windows = _grid(quick)
    return figure("E2 / Fig 10 — Query 1 (telnet join)",
                  [("Q1-telnet", lambda gen, w: query1(gen, w, "telnet"))],
                  ALL_MODES, pairs, windows=windows)


def e3_query2_distinct(quick: bool = False) -> list[SweepPoint]:
    """Figure 11: Query 2 — δ vs the standard duplicate elimination."""
    pairs, windows = _grid(quick)
    return figure("E3 / Fig 11 — Query 2 (distinct src, src-dst)",
                  [("Q2-src", lambda gen, w: query2(gen, w, pairs=False)),
                   ("Q2-pairs", lambda gen, w: query2(gen, w, pairs=True))],
                  ALL_MODES, pairs, windows=windows)


#: E4's grid: three plans whose negation results are STR
#: (Query 3 has the negation at the root, Query 5 push-down a join above
#: it, Query 5 pull-up the negation above a join), the links' source-IP
#: overlap (0: no result ever expires before its ``exp``; 1: premature
#: expirations are frequent), the window, and per-tuple vs batched runs.
E4_PLANS = [("Q3", query3), ("Q5-push", query5_pushdown),
            ("Q5-pull", query5_pullup)]
E4_OVERLAPS = (0.0, 0.5, 1.0)
E4_WINDOWS = (100, 400, 800)
E4_BATCHES = (None, 64)


def e4_query3_negation(quick: bool = False) -> list[SweepPoint]:
    """Figure 12, widened: STR results under NT and UPA over E4's grid."""
    pairs, windows = (1, QUICK_WINDOWS) if quick else (PAIRS, E4_WINDOWS)
    return figure("E4 / Fig 12 — STR results, UPA vs NT", E4_PLANS,
                  STRICT_MODES, pairs, overlaps=E4_OVERLAPS, windows=windows,
                  batches=E4_BATCHES)


def e5_query4_distinct_join(quick: bool = False) -> list[SweepPoint]:
    """Figure 13: Query 4 — δ feeding a join with partitioned state."""
    pairs, windows = _grid(quick)
    return figure("E5 / Fig 13 — Query 4 (distinct + join)",
                  [("Q4", query4)], ALL_MODES, pairs, windows=windows)


def e6_query5_rewritings(quick: bool = False) -> list[SweepPoint]:
    """Figure 14: both Figure 6 plans of Query 5 under NT and UPA.

    Full source-IP overlap (the negation prunes heavily) and partial
    overlap (it removes little but still emits premature negatives) are
    the two sides of the paper's discussion (Section 5.4.3).  The two plans
    answer different queries wherever a source IP repeats on the ftp side
    (DESIGN.md, "Negation moves only across key-unique inputs"), so
    answers are compared within a plan, not across the two.
    """
    pairs, windows = _grid(quick)
    return figure("E6 / Fig 14 — Query 5, pull-up vs push-down",
                  [("Q5-pull", query5_pullup), ("Q5-push", query5_pushdown)],
                  STRICT_MODES, pairs, overlaps=(1.0, 0.25), windows=windows)


def e7_partition_sweep(quick: bool = False) -> list[SweepPoint]:
    """Figure 15: the number of partitions (Query 4 under UPA).

    Query 4, not Query 1 telnet: Query 1's only partitioned buffer was its
    result view, and a UPA bag ⋈ bag root answers from join state.  Query 4
    keeps partitioned buffers on both sides — the join's WK inputs and the
    δ ⋈ δ view (see EXPERIMENTS.md, E7).
    """
    return figure(f"E7 / Fig 15 — Query 4 (UPA), W={ONE_WINDOW}, "
                  "by number of partitions p", [("Q4", query4)],
                  [strategy(f"p={n}", mode=Mode.UPA, n_partitions=n)
                   for n in (1, 2, 5, 10, 20, 50)],
                  _grid(quick)[0], windows=(ONE_WINDOW,))


def e8_cost_model(quick: bool = False) -> list[tuple[str, float, float]]:
    """Cost-model validation: does the predicted per-unit-time cost rank
    Query 5's two plans as measured work does?"""
    window = ONE_WINDOW
    gen = make_generator()
    catalog = Catalog(
        distinct_counts={(f"link{i}", attr): est
                         for i in range(4)
                         for attr, est in
                         gen.estimated_distincts(window).items()},
        premature_frequency=0.5,
    )
    model = CostModel(catalog)
    rows: list[tuple[str, float, float]] = []
    for plan_fn, tag in ((query5_pullup, "pull-up"),
                         (query5_pushdown, "push-down")):
        plan = plan_fn(gen, window)
        query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))
        result = query.run(iter(trace_for(window)))
        rows.append((tag, model.estimate(plan).total,
                     result.touches_per_tuple()))
    print(f"\n== E8 — cost model vs measured (Query 5, W={window}) ==")
    print(f"{'plan':<12}{'predicted cost':>16}{'measured tch/ev':>18}")
    for tag, predicted, measured in rows:
        print(f"{tag:<12}{predicted:>16.1f}{measured:>18.1f}")
    predicted_order = [r[0] for r in sorted(rows, key=lambda r: r[1])]
    measured_order = [r[0] for r in sorted(rows, key=lambda r: r[2])]
    print(f"  predicted order: {predicted_order}; "
          f"measured order: {measured_order}; "
          f"agreement: {predicted_order == measured_order}")
    return rows


def e9_lazy_interval(quick: bool = False) -> list[SweepPoint]:
    """Lazy-expiration-interval sensitivity (Section 6.1 notes longer
    intervals are slightly faster at higher memory)."""
    return figure(f"E9 — Query 1 (telnet, UPA), W={ONE_WINDOW}, by lazy "
                  "interval (share of the window)",
                  [("Q1-telnet", lambda gen, w: query1(gen, w, "telnet"))],
                  [strategy(f"lazy={f:.0%}", mode=Mode.UPA,
                            lazy_interval=f * ONE_WINDOW)
                   for f in (0.01, 0.05, 0.10, 0.20)],
                  _grid(quick)[0], windows=(ONE_WINDOW,))


def e10_memory(quick: bool = False) -> list[tuple[str, int, int, float]]:
    """Memory ablation (§5.4.2): peak state across strategies and against
    the lazy interval and δ-vs-standard duplicate elimination."""
    window = ONE_WINDOW
    gen = make_generator()
    events = trace_for(window)
    rows: list[tuple[str, int, int, float]] = []

    def run(label: str, plan, **cfg):
        # The registry's state gauges are the memory profile: every run
        # samples operator state and the view every ``sample_events`` events.
        query = ContinuousQuery(plan, ExecutionConfig(**cfg))
        query.executor.sample_events = 50
        result = query.run(iter(events))
        rows.append((label, result.metrics.value("state_tuples_peak"),
                     result.metrics.value("view_results_peak"),
                     result.time_per_1000() * 1000.0))

    run("Q1/NT", query1(gen, window, "telnet"), mode=Mode.NT)
    run("Q1/DIRECT", query1(gen, window, "telnet"), mode=Mode.DIRECT)
    run("Q1/UPA", query1(gen, window, "telnet"), mode=Mode.UPA)
    run("Q1/UPA lazy=1%", query1(gen, window, "telnet"), mode=Mode.UPA,
        lazy_interval=0.01 * window)
    run("Q1/UPA lazy=25%", query1(gen, window, "telnet"), mode=Mode.UPA,
        lazy_interval=0.25 * window)
    run("Q2/standard (DIRECT)", query2(gen, window), mode=Mode.DIRECT)
    run("Q2/delta (UPA)", query2(gen, window), mode=Mode.UPA)

    print(f"\n== E10 — memory ablation (W={window}) ==")
    print(f"{'configuration':<24}{'peak state':>12}{'peak view':>12}"
          f"{'ms/1k':>10}")
    for label, state, view, ms in rows:
        print(f"{label:<24}{state:>12}{view:>12}{ms:>10.2f}")
    return rows


def e11_reeval_baseline(quick: bool = False) -> list[SweepPoint]:
    """Ablation: incremental maintenance vs from-scratch periodic
    re-evaluation, refreshed on every event (always fresh) or every 5 % of
    the window, on Query 1 (telnet)."""
    pairs, windows = _grid(quick)
    points: list[SweepPoint] = []
    for window in windows:
        points += paired_sweep(
            [("Q1-telnet", lambda gen, w: query1(gen, w, "telnet"))],
            [ALL_MODES[2],
             ("REEVAL-fresh", lambda plan: ReEvaluationQuery(plan, 0.0)),
             ("REEVAL-5pct",
              lambda plan, w=window: ReEvaluationQuery(plan, 0.05 * w))],
            pairs, windows=(window,))
    print_sweep("E11 — incremental (UPA) vs from-scratch re-evaluation — "
                f"ms/1k over {pairs} alternating pair(s)", points)
    return points


EXPERIMENTS: dict[str, Callable[[bool], list]] = {
    "e1": e1_query1_ftp,
    "e2": e2_query1_telnet,
    "e3": e3_query2_distinct,
    "e4": e4_query3_negation,
    "e5": e5_query4_distinct_join,
    "e6": e6_query5_rewritings,
    "e7": e7_partition_sweep,
    "e8": e8_cost_model,
    "e9": e9_lazy_interval,
    "e10": e10_memory,
    "e11": e11_reeval_baseline,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's experiments (see DESIGN.md)")
    parser.add_argument("experiments", nargs="*", default=["all"],
                        help=f"{', '.join(EXPERIMENTS)} or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="one pair over the small window sweep")
    args = parser.parse_args(argv)
    names = list(EXPERIMENTS) if "all" in args.experiments \
        else args.experiments
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments {unknown}; "
                     f"choose from {list(EXPERIMENTS)} or 'all'")
    for name in names:
        EXPERIMENTS[name](args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
