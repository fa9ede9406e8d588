"""IP traffic monitoring — the paper's motivating workload (Section 6.1).

Replays a synthetic wide-area TCP trace (the stand-in for the LBL-TCP-3
archive trace) through the paper's five experimental queries and reports
what each strategy maintains, exactly like a network operator's dashboard
would: which source IPs appear on several outgoing links, which are unique
to one link, and per-protocol traffic aggregates.

Run:  python examples/traffic_monitoring.py
"""

from repro import ContinuousQuery, ExecutionConfig, Mode, count, agg_sum, from_window
from repro.workloads import (
    TrafficConfig,
    TrafficTraceGenerator,
    query1,
    query2,
    query3,
)

WINDOW = 120            # time units ≈ tuples per link
N_EVENTS = 2_000


def main() -> None:
    gen = TrafficTraceGenerator(TrafficConfig(n_links=4, n_src_ips=120,
                                              seed=7))
    events = list(gen.events(N_EVENTS))
    print(f"trace: {N_EVENTS} tuples over {events[-1].ts:.0f} time units, "
          f"4 links, window = {WINDOW}\n")

    # -- Query 1: correlated telnet sessions across two links --------------
    q1 = ContinuousQuery(query1(gen, WINDOW, "telnet"),
                         ExecutionConfig(mode=Mode.UPA))
    r1 = q1.run(iter(events))
    print(f"Q1  telnet join across links 0 and 1: "
          f"{sum(r1.answer().values())} live correlated pairs "
          f"({r1.time_per_1000()*1000:.1f} ms / 1000 tuples)")

    # -- Query 2: distinct sources on link 0 -------------------------------
    q2 = ContinuousQuery(query2(gen, WINDOW), ExecutionConfig(mode=Mode.UPA))
    r2 = q2.run(iter(events))
    print(f"Q2  distinct sources on link 0: {len(r2.answer())} live IPs")

    # -- Query 3: sources seen on link 0 but not on link 1 -----------------
    q3 = ContinuousQuery(query3(gen, WINDOW), ExecutionConfig(mode=Mode.UPA))
    r3 = q3.run(iter(events))
    unique = {values[3] for values in r3.answer()}
    print(f"Q3  sources on link 0 with excess traffic over link 1: "
          f"{len(unique)} IPs")

    # -- Per-protocol dashboard over link 0 --------------------------------
    dash_plan = (from_window(gen.stream_def(0, WINDOW))
                 .group_by(["protocol"], [count("flows"),
                                          agg_sum("bytes", "bytes")])
                 .build())
    dash = ContinuousQuery(dash_plan, ExecutionConfig(mode=Mode.UPA))
    dash.run(iter(events))
    print("\nLive per-protocol dashboard (link 0):")
    print(f"  {'protocol':<10}{'flows':>8}{'bytes':>12}")
    for protocol, flows, total in sorted(dash.answer(),
                                         key=lambda row: -row[1]):
        print(f"  {protocol:<10}{flows:>8}{total:>12}")


if __name__ == "__main__":
    main()
