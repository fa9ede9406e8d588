"""Smoke test of the benchmark itself: ``python -m pytest benchmarks/e2e``.

Not part of tier-1 (``testpaths = ["tests"]``).  Runs the smoke mode in a
fresh interpreter, as the driver would, and checks the result document
against ``BENCHMARK.json``.
"""

import json
import os
import re
import subprocess
import sys

from benchmarks.e2e import ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _session_members(sid: int) -> list[str]:
    """Command lines of the live (non-zombie) processes of session ``sid``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
                state, _ppid, _pgrp, session = (
                    f.read().rpartition(")")[2].split()[:4])
            if int(session) == sid and state != "Z":
                with open(f"/proc/{pid}/cmdline", encoding="utf-8") as f:
                    found.append(f.read().replace("\0", " "))
        except OSError:  # gone between listdir and open
            continue
    return found


def test_smoke_run_reports_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    run = subprocess.Popen(
        [sys.executable, os.path.join("benchmarks", "e2e", "__main__.py"),
         "--smoke", "--out", str(out)],
        cwd=ROOT, start_new_session=True)
    assert run.wait(timeout=170) == 0
    # The driver refuses a benchmark that leaves a process running.
    assert _session_members(run.pid) == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    document = json.loads(out.read_text())
    assert list(document["workloads"]) == [
        w["name"] for w in spec["workloads"]]
    for name, record in document["workloads"].items():
        assert NAME.fullmatch(name)
        assert record["fail_share"] == 0, name
        assert record["attempted"] >= 1
        for kind in ("end_to_end", "per_layer"):
            assert set(record[kind]) == {m["name"] for m in spec[kind]}
            for metric, entry in record[kind].items():
                assert NAME.fullmatch(metric)
                assert NAME.fullmatch(entry["unit"])
                assert isinstance(entry["value"], float)
        for metric in spec["end_to_end"]:
            assert record["end_to_end"][metric["name"]]["value"] > 0
    spans = json.loads((tmp_path / "smoke.spans.json").read_text())
    assert {"id", "parent", "workload", "name", "start", "end",
            "self"} <= set(spans[0])


def test_reference_agrees_with_the_repository_oracle():
    from benchmarks.e2e.reference import self_test

    assert self_test() > 0
