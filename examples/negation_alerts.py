"""Negation-based alerting: premature expirations in action (Section 3.2).

A security-style query: report source IPs whose traffic on a monitored link
exceeds their traffic on a baseline link (Equation 1's bag negation).  The
interesting behaviour is *strict non-monotonicity*: an alert can be retracted
before its window expiry, the moment matching baseline traffic shows up —
the paper's "premature expiration", signalled with a negative tuple.

The example traces the answer set event by event and then compares, on a
larger replay, UPA (STR results stored partitioned by ``exp``, Section
5.3.2) with the negative tuple approach, which signals every expiration.

Run:  python examples/negation_alerts.py
"""

from repro import Arrival, ContinuousQuery, ExecutionConfig, Mode, Tick
from repro.workloads import TrafficConfig, TrafficTraceGenerator, query3

WINDOW = 60


def trace_answer_evolution() -> None:
    gen = TrafficTraceGenerator(TrafficConfig(n_links=2, n_src_ips=10,
                                              seed=1))
    plan = query3(gen, WINDOW)  # link0 − link1 on src_ip
    query = ContinuousQuery(plan, ExecutionConfig(mode=Mode.UPA))

    def tuple_for(src):
        return (1.0, "telnet", 500, src, "172.16.0.0")

    script = [
        ("suspect traffic arrives on link0", Arrival(1, "link0",
                                                     tuple_for("10.0.0.9"))),
        ("matching baseline traffic on link1 → the alert is retracted "
         "prematurely", Arrival(8, "link1", tuple_for("10.0.0.9"))),
        ("excess suspect traffic arrives → alert again",
         Arrival(30, "link0", tuple_for("10.0.0.9"))),
        ("baseline tuple expires at 68 → the surviving suspect tuple "
         "still alerts", Tick(68.5)),
        ("window passes → everything ages out", Tick(130)),
    ]
    print(f"Alert set evolution (window = {WINDOW}):")
    for label, event in script:
        # query.executor is the query's driver: one event, one call of
        # its compiled per-tuple loop.
        query.executor.process_event(event)
        alerts = sorted({v[3] for v in query.answer().elements()})
        count = sum(query.answer().values())
        print(f"  t={event.ts:>6}: {label}")
        print(f"           alerts: {count} tuple(s) from {alerts or '{}'}")


def compare_strategies() -> None:
    print("\nNegation on a 4-link replay, NT vs UPA:")
    for overlap, regime in ((1.0, "shared IP pools (frequent premature "
                                  "expirations)"),
                            (0.0, "disjoint IP pools (no premature "
                                  "expirations)")):
        gen = TrafficTraceGenerator(TrafficConfig(n_links=4, n_src_ips=150,
                                                  ip_overlap=overlap,
                                                  seed=42))
        events = list(gen.events(4000))
        line = [f"  {regime}:"]
        for mode in (Mode.NT, Mode.UPA):
            query = ContinuousQuery(query3(gen, 200),
                                    ExecutionConfig(mode=mode))
            result = query.run(iter(events))
            line.append(f"{mode.value}: {result.touches_per_tuple():.1f} "
                        "touches/tuple")
        print("  ".join(line))


if __name__ == "__main__":
    trace_answer_evolution()
    compare_strategies()
