"""Sensor-network monitoring — the paper's other motivating application.

A field of temperature sensors reports sporadically; a QueryGroup keeps
several standing queries fresh from one pass over the feed:

* a per-sensor dashboard of windowed statistics (count / avg / stddev);
* an anomaly stream of readings far from the fleet's typical range;
* a coverage watchdog over a count-based window (the N most recent reports)
  showing which sensors are still reporting.

Because sensors go quiet, the feed is wrapped in heartbeats so the answers
decay on schedule even with no arrivals — Section 2.3's "the aggregate value
changes as a result of expiration from the input".

Run:  python examples/sensor_dashboard.py
"""

import random

from repro import (
    Arrival,
    CountWindow,
    ExecutionConfig,
    Mode,
    Predicate,
    QueryGroup,
    Schema,
    StreamDef,
    TimeWindow,
    avg,
    count,
    from_window,
    stddev,
    with_heartbeats,
)

READINGS = Schema(["sensor", "temperature"])
WINDOW = 60.0


def sensor_feed(n_events: int, seed: int = 3) -> list:
    """Sporadic readings from ten sensors; sensor_7 dies mid-run and
    sensor_3 starts overheating."""
    rng = random.Random(seed)
    events = []
    ts = 0.0
    for i in range(n_events):
        ts += rng.expovariate(0.8)
        sensor = f"sensor_{rng.randrange(10)}"
        if sensor == "sensor_7" and ts > 120:
            continue  # died
        base = 21.0 + rng.gauss(0, 1.5)
        if sensor == "sensor_3" and ts > 150:
            base += 15.0  # overheating
        events.append(Arrival(ts, "readings", (sensor, round(base, 2))))
    return events


def main() -> None:
    windowed = StreamDef("readings", READINGS, TimeWindow(WINDOW))
    recent = StreamDef("readings", READINGS, CountWindow(25))

    group = QueryGroup()
    group.add(
        "dashboard",
        from_window(windowed).group_by(
            ["sensor"], [count("n"), avg("temperature"),
                         stddev("temperature")]).build(),
        ExecutionConfig(mode=Mode.UPA),
    )
    group.add(
        "anomalies",
        from_window(windowed).where(
            Predicate(("temperature",), lambda v: v[1] > 30.0,
                      "temperature > 30", selectivity=0.02)).build(),
        ExecutionConfig(mode=Mode.UPA),
    )

    # The count window runs in its own (sequence) time domain, so it gets
    # its own query rather than joining the group.
    from repro import ContinuousQuery
    coverage = ContinuousQuery(
        from_window(recent).project("sensor").distinct().build(),
        ExecutionConfig(mode=Mode.UPA))

    feed = sensor_feed(400)
    group.run(with_heartbeats(iter(feed), max_delay=5.0))
    coverage.run(iter(feed))

    print("Per-sensor dashboard (last "
          f"{WINDOW:.0f}s of readings):")
    print(f"  {'sensor':<12}{'n':>4}{'avg °C':>9}{'σ':>7}")
    for sensor, n, mean, sd in sorted(group["dashboard"].answer()):
        print(f"  {sensor:<12}{n:>4}{mean:>9.2f}{sd:>7.2f}")

    anomalies = group["anomalies"].answer()
    hot = sorted({values[0] for values in anomalies})
    print(f"\nLive anomaly tuples: {sum(anomalies.values())} "
          f"(sensors: {', '.join(hot) or 'none'})")

    reporting = sorted(v[0] for v in coverage.answer())
    silent = sorted({f"sensor_{i}" for i in range(10)} - set(reporting))
    print(f"\nSensors among the 25 most recent reports: {len(reporting)}")
    print(f"Silent sensors: {', '.join(silent) or 'none'}")


if __name__ == "__main__":
    main()
