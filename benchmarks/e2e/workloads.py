"""The eight workloads: query text, strategy, driving mode and rationale.

All windows are ``[RANGE 800]``; every workload replays a prefix of the
one trace of :mod:`benchmarks.e2e.gen` with all four links offered, and
the denominator of every per-1000 metric is the arrivals offered (the
paper's Section 6.1 metric).  All loops are closed, with one driving
thread.

Query 1's filters are written as subqueries on purpose: the natural text
``... JOIN ... WHERE l_protocol = 'ftp' AND r_protocol = 'ftp'`` leaves
both selections above the join (see README.md), which measures a
different plan.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import Mode

from .gen import WINDOW


class Workload(NamedTuple):
    name: str
    text: str
    mode: Mode
    #: Events per ``process_batch`` call; ``None`` drives ``process_event``.
    batch: int | None
    arrivals: int
    #: Read ``answer()`` every this many arrivals inside the timed loop.
    poll: int | None
    #: Drive through ``query.run(..., shards=k, shard_backend="process")``.
    shards: int | None
    why: str


def _query1(protocol: str) -> str:
    return (
        f"SELECT * FROM (SELECT * FROM link0 [RANGE {WINDOW}] "
        f"WHERE protocol = '{protocol}') AS a "
        f"JOIN (SELECT * FROM link1 [RANGE {WINDOW}] "
        f"WHERE protocol = '{protocol}') AS b ON a.src_ip = b.src_ip"
    )


_Q1_TELNET = _query1("telnet")

WORKLOADS = (
    Workload(
        "q1_ftp", _query1("ftp"), Mode.UPA, 64, 400_000, None, None,
        "Query 1, ftp: selective stateless prefix, tiny state; the only "
        "workload where the columnar data plane dominates the profile"),
    Workload(
        "q1_telnet", _Q1_TELNET, Mode.UPA, 64, 48_000, None, None,
        "Query 1, telnet: 10x the output into a WK result view of "
        "thousands of tuples; partitioned-buffer insort and tuple "
        "construction dominate (the stateful-core item)"),
    Workload(
        "q1_telnet_poll", _Q1_TELNET, Mode.UPA, 64, 48_000, 256, None,
        "q1_telnet with answer() read every 256 arrivals: reads beside "
        "writes on one WK view, so a view that speeds apply but slows "
        "snapshot shows here"),
    Workload(
        "q1_telnet_shard2", _Q1_TELNET, Mode.UPA, 64, 16_000, None, 2,
        "q1_telnet's query through run(shards=2, process backend): the "
        "only workload over engine.shard and the routed codec; a third of "
        "the arrivals so that enough replays fit to see every chunk "
        "undisturbed"),
    Workload(
        "q2_pairs_pt",
        f"SELECT DISTINCT src_ip, dst_ip FROM link0 [RANGE {WINDOW}]",
        Mode.UPA, None, 160_000, None, None,
        "Query 2 pairs, one process_event per arrival: the per-tuple "
        "driver path that batch-only gains must not tax; columnar unused"),
    Workload(
        "q3_neg",
        f"SELECT * FROM link0 [RANGE {WINDOW}] "
        f"MINUS link1 [RANGE {WINDOW}] ON src_ip",
        Mode.UPA, 64, 128_000, None, None,
        "Query 3, STR output: negation store probes, frequent premature "
        "expirations and negative tuples; nothing else exercises them"),
    Workload(
        "q4_nt",
        f"SELECT * FROM (SELECT DISTINCT src_ip FROM link0 "
        f"[RANGE {WINDOW}]) AS a JOIN (SELECT DISTINCT src_ip FROM link1 "
        f"[RANGE {WINDOW}]) AS b ON a.src_ip = b.src_ip",
        Mode.NT, 64, 80_000, None, None,
        "Query 4 under the negative-tuple strategy: hash buffers, absent "
        "from the UPA workloads; guards the paper's baseline against "
        "UPA-only shortcuts"),
    Workload(
        "grp_src",
        f"SELECT src_ip, COUNT(*), SUM(bytes), AVG(bytes) "
        f"FROM link0 [RANGE {WINDOW}] GROUP BY src_ip",
        Mode.UPA, 64, 128_000, None, None,
        "Group-by with COUNT/SUM/AVG: the only cover for operators.groupby"
        ", aggregates and the GroupStore buffer"),
)

BY_NAME = {w.name: w for w in WORKLOADS}
