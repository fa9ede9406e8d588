"""Command line of the benchmark.

``--workload NAME --seed N --seconds S --trace 0|1`` is the form
``BENCHMARK.json`` describes: one workload, one pass, and a last line of
standard output holding one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--workload`` every workload runs,
and without ``--trace`` both passes run; ``--out FILE`` writes the result
document and, beside it, the span trace.  ``--compare A.json B.json``
sets two result documents against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
from multiprocessing import resource_tracker

from . import ROOT
from .gen import digest, generate
from .measure import Spans, Tally, end_to_end, per_layer
from .reference import Reference
from .workloads import BY_NAME, WORKLOADS

SCHEMA = "repro.e2e/v1"
#: Metrics that are exact for a given program and seed.
EXACT = ("calls_per_1k", "state_peak")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def program_digest() -> str:
    """SHA-256 over the program's sources, so two result documents can
    tell whether they measured the same program."""
    sha = hashlib.sha256()
    package = os.path.join(ROOT, "src", "repro")
    for directory, subdirs, files in os.walk(package):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sha.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as f:
                    sha.update(f.read())
    return sha.hexdigest()


def _show(workload: str, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run(args) -> int:
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    passes = [args.trace] if args.trace is not None else [0, 1]
    scale = 16 if args.smoke else 1
    seconds = 0.0 if args.smoke else args.seconds
    min_replays = 2 if args.smoke else 3

    longest = max(BY_NAME[name].arrivals for name in names) // scale
    trace = generate(args.seed, longest)
    trace_sha = digest(trace)
    print(f"trace: seed {args.seed}, {longest} arrivals, sha256 {trace_sha}")
    # Keep the benchmark's own objects out of the program's GC passes.
    gc.collect()
    gc.freeze()

    document = {
        "schema": SCHEMA, "seed": args.seed, "smoke": args.smoke,
        "seconds": seconds, "trace_arrivals": longest,
        "trace_sha256": trace_sha, "program_sha256": program_digest(),
        "workloads": {},
    }
    span_log: list[dict] = []
    for name in names:
        w = BY_NAME[name]
        events = trace[:w.arrivals // scale]
        tally = Tally()
        record: dict = {"arrivals": len(events)}
        if 0 in passes:
            print(f"{name}: end-to-end pass over {len(events)} arrivals")
            reference = Reference(events)
            record["end_to_end"] = _show(name, end_to_end(
                w, events, reference, seconds, min_replays, tally))
        if 1 in passes:
            print(f"{name}: per-layer pass over {len(events)} arrivals")
            spans = Spans(name)
            record["per_layer"] = _show(name, per_layer(
                w, events, seconds, min_replays, tally, spans))
            span_log.extend(spans.document())
        record["attempted"] = tally.attempted
        record["failed"] = tally.failed
        record["fail_share"] = tally.failed / tally.attempted
        print(f"{name} fail_share = {record['fail_share']:.6g} "
              f"({tally.failed} of {tally.attempted})")
        document["workloads"][name] = record

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(document, f, indent=1)
            f.write("\n")
        spans_path = os.path.splitext(args.out)[0] + ".spans.json"
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(span_log, f)
        print(f"wrote {args.out} and {spans_path} ({len(span_log)} spans)")

    records = document["workloads"].values()
    failed = sum(r["failed"] for r in records)
    if args.workload and args.trace is not None:
        (record,) = records
        print(json.dumps({
            "correct": failed == 0,
            "attempted": record["attempted"],
            "failed": failed,
            "metrics": record["per_layer" if args.trace else "end_to_end"],
        }))
    return 0 if failed == 0 else 1


def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: both values, the relative
    difference and the bound.  Non-zero exit when B is worse than A by
    more than the bound — or, when both documents measured one program on
    one seed, when they disagree by more than the bound either way or an
    exact metric differs at all."""
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    same = all(a[key] == b[key] for key in
               ("program_sha256", "trace_sha256", "smoke"))
    print(f"A {path_a}\nB {path_b}\n"
          + ("same program and trace: exact metrics must be identical"
             if same else "different program or trace"))
    spec = _spec()["end_to_end"]
    bad = 0
    print(f"{'workload':<18}{'metric':<14}{'A':>14}{'B':>14}"
          f"{'diff':>9}{'bound':>7}")
    for name, record_a in a["workloads"].items():
        record_b = b["workloads"].get(name)
        if record_b is None:
            print(f"{name:<18}missing from B")
            bad += 1
            continue
        rows = [(m["name"], m["bound"], m["better"] == "lower",
                 record_a["end_to_end"][m["name"]]["value"],
                 record_b["end_to_end"][m["name"]]["value"])
                for m in spec]
        rows.append(("fail_share", 0.0, True, record_a["fail_share"],
                     record_b["fail_share"]))
        for metric, bound, lower, va, vb in rows:
            worse = (vb - va if lower else va - vb) / va if va else vb - va
            verdict = ""
            if worse > bound or (same and -worse > bound):
                verdict = "  EXCEEDS BOUND"
            elif same and metric in EXACT and va != vb:
                verdict = "  NOT EXACT"
            bad += bool(verdict)
            print(f"{name:<18}{metric:<14}{va:>14.6g}{vb:>14.6g}"
                  f"{worse:>+9.2%}{bound:>7.2f}{verdict}")
    print("compare: " + (f"{bad} difference(s) out of bounds" if bad
                         else "all within bounds"))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="replay time measured per workload and pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only; 1: per-layer pass "
                             "only (default: both)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the result document here and the span "
                             "trace to FILE's stem + .spans.json")
    parser.add_argument("--smoke", action="store_true",
                        help="1/16 of the arrivals, two replays")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    try:
        return run(args)
    finally:
        stop_children()


def stop_children() -> None:
    """Leave no process behind, on any way out of a run.

    The program reaps its own shard workers; what outlives the run is the
    ``multiprocessing.resource_tracker`` helper that the first shared-memory
    arena starts.  It is a child of this process that exits only once this
    process has closed its pipe to it, i.e. by default some moment *after*
    this process is gone.  Close the pipe and wait for it here instead.
    """
    for process in multiprocessing.active_children():
        process.terminate()
        process.join(5.0)
        if process.is_alive():
            process.kill()
            process.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None:
        return
    os.close(fd)
    tracker._fd = None
    if pid is not None:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # already reaped
            pass
        tracker._pid = None
