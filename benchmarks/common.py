"""Shared machinery for the experiment harness and pytest benchmarks.

Every experiment follows the paper's protocol (Section 6.1): replay a fixed
trace through a query compiled under each strategy and report the average
execution time per 1000 tuples processed.  We additionally report
*state touches per tuple* — a deterministic work metric that exposes the
asymptotic behaviour independently of interpreter noise (see DESIGN.md).

Trace sizes are chosen so each run covers at least three window lengths
(fill + steady state), i.e. ``n_events = span_factor * window * n_links``
with the default one-tuple-per-link-per-time-unit rate.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable

from repro import ContinuousQuery, ExecutionConfig, Mode
from repro.core.plan import LogicalNode
from repro.workloads import TrafficConfig, TrafficTraceGenerator

#: Windows swept by the full harness; --quick and the pytest benchmarks use
#: a prefix of this list.
FULL_WINDOWS = (100, 200, 400, 800)
QUICK_WINDOWS = (50, 100, 200)
SPAN_FACTOR = 3  # trace covers three window lengths

#: Workload used by every experiment unless stated otherwise: a denser IP
#: pool than the generator default so joins have realistic fan-out.
BENCH_TRAFFIC = TrafficConfig(n_links=4, n_src_ips=150, seed=42)


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def windows() -> tuple[int, ...]:
    return QUICK_WINDOWS if quick_mode() else FULL_WINDOWS


_TRACE_CACHE: dict[tuple, list] = {}


def make_generator(config: TrafficConfig = BENCH_TRAFFIC) -> TrafficTraceGenerator:
    return TrafficTraceGenerator(config)


def _config_key(config: TrafficConfig) -> tuple:
    return (config.n_links, config.n_src_ips, config.n_dst_per_link,
            config.zipf_s, config.mean_interarrival, config.ip_overlap,
            tuple(sorted(config.protocol_mix.items())), config.seed)


def trace_for(window: float, config: TrafficConfig = BENCH_TRAFFIC) -> list:
    """The (cached) event list sized for ``window``."""
    n_events = int(SPAN_FACTOR * window * config.n_links
                   / config.mean_interarrival)
    key = (_config_key(config), n_events)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = list(TrafficTraceGenerator(config).events(n_events))
    return _TRACE_CACHE[key]


@dataclasses.dataclass
class Measurement:
    """One (strategy, window) cell of an experiment table."""

    label: str
    window: float
    events: int
    time_ms_per_1000: float
    touches_per_tuple: float
    answer_size: int

    def row(self) -> tuple:
        return (self.label, self.window, round(self.time_ms_per_1000, 2),
                round(self.touches_per_tuple, 1), self.answer_size)


def run_once(plan: LogicalNode, events: list,
             config: ExecutionConfig, label: str,
             window: float, batch: int | None = None) -> Measurement:
    """Compile and run one strategy over one trace.

    ``batch=N`` runs the micro-batch execution path (identical outputs,
    amortized expiration scheduling — see ``Executor.run``).
    """
    query = ContinuousQuery(plan, config)
    result = query.run(iter(events), batch=batch)
    return Measurement(
        label=label,
        window=window,
        events=result.events_processed,
        time_ms_per_1000=result.time_per_1000() * 1000.0,
        touches_per_tuple=result.touches_per_tuple(),
        answer_size=sum(result.answer().values()),
    )


def sweep(plan_factory: Callable[[TrafficTraceGenerator, float], LogicalNode],
          strategies: list[tuple[str, Callable[[], ExecutionConfig]]],
          window_sizes: tuple[float, ...] | None = None,
          config: TrafficConfig = BENCH_TRAFFIC) -> list[Measurement]:
    """Run every strategy over every window size; returns all measurements."""
    window_sizes = window_sizes if window_sizes is not None else windows()
    out: list[Measurement] = []
    gen = make_generator(config)
    for window in window_sizes:
        events = trace_for(window, config)
        for label, config_factory in strategies:
            plan = plan_factory(gen, window)
            out.append(run_once(plan, events, config_factory(), label,
                                window))
    return out


def standard_strategies(*modes: Mode,
                        **config_kwargs) -> list[tuple[str, Callable]]:
    """(label, config factory) pairs for plain NT / DIRECT / UPA runs."""
    return [
        (mode.value.upper(),
         lambda m=mode: ExecutionConfig(mode=m, **config_kwargs))
        for mode in modes
    ]


def print_table(title: str, measurements: list[Measurement],
                row_key: str = "window") -> None:
    """Render one experiment as the paper-style table."""
    print(f"\n== {title} ==")
    strategies = list(dict.fromkeys(m.label for m in measurements))
    keys = sorted({m.window for m in measurements})
    header = [row_key.ljust(10)]
    for s in strategies:
        header.append(f"{s} ms/1k".rjust(14))
        header.append(f"{s} tch/tup".rjust(14))
    print(" ".join(header))
    by_cell = {(m.window, m.label): m for m in measurements}
    for key in keys:
        cells = [f"{key:<10g}"]
        for s in strategies:
            m = by_cell.get((key, s))
            if m is None:
                cells.extend(["--".rjust(14)] * 2)
            else:
                cells.append(f"{m.time_ms_per_1000:14.2f}")
                cells.append(f"{m.touches_per_tuple:14.1f}")
        print(" ".join(cells))


def speedup_summary(measurements: list[Measurement], baseline: str,
                    contender: str) -> dict[float, float]:
    """Touch-count ratio baseline/contender per window (who wins, by how
    much) — the paper's shape claims are checked against this."""
    by_cell = {(m.window, m.label): m for m in measurements}
    out = {}
    for window in sorted({m.window for m in measurements}):
        base = by_cell.get((window, baseline))
        cont = by_cell.get((window, contender))
        if base and cont and cont.touches_per_tuple:
            out[window] = base.touches_per_tuple / cont.touches_per_tuple
    return out
