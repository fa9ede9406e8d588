"""The zero-pickle shard transport must repay its codec.

The chunk plane (``engine/columnar.py``) ships shard chunks through a
fused routed shm codec; the compact-tuple pickle pipe stays as the
fallback for chunks the codec cannot represent and for platforms without
shared memory.  At ``DEFAULT_CHUNK`` the codec must beat the pickle pipe
per global chunk by ``REPRO_COLUMNAR_TRANSPORT_TOL`` (default 2.0x) up to
the lazy ChunkTable boundary both transports share.

The wall-clock gate is noise-tolerant: each side is a minimum over
interleaved rounds, and a violating comparison is re-measured (both
sides) before it counts — transient spikes vanish on retry, real
regressions are slow every time.  Which micro-batch loop a plan takes is
the driver's choice, not a knob, so its speed is gated end to end by
``python -m benchmarks.e2e --compare``, not here.
"""

import json
import os

import pytest

from repro.engine.shard import DEFAULT_CHUNK

from .common import quick_mode
from .experiments import EXPERIMENTS, columnar_speedup, transport_cost
from .harness import BENCH_SCHEMA, bench_document, main as harness_main

#: Transport micro-cell labels (the ``window`` field carries chunk size).
TRANSPORT_LABELS = ("transport/shm", "transport/pickle",
                    "transport/shm-eager", "transport/pickle-eager")

TRANSPORT_TOL = float(
    os.environ.get("REPRO_COLUMNAR_TRANSPORT_TOL", "2.0"))

#: Quick-mode traces are too short to resolve the strict factor on a
#: shared 1-vCPU runner; the floor is relaxed by this divisor there (the
#: full-window run keeps it strict).
QUICK_NOISE = 1.25


@pytest.fixture(scope="module")
def measurements():
    """One sweep per test session (the replay dominates the runtime)."""
    return columnar_speedup()


class TestTransportCost:
    """E13 per-chunk transport: fused routed shm codec vs pickle pipe."""

    def test_registered_with_harness(self):
        assert EXPERIMENTS["columnar"] is columnar_speedup

    def test_transport_cells_cover_default_chunk(self, measurements):
        assert {m.label for m in measurements} == set(TRANSPORT_LABELS)
        chunks = {m.window for m in measurements
                  if m.label == "transport/shm"}
        assert DEFAULT_CHUNK in chunks

    def test_shm_codec_beats_pickle_at_default_chunk(self, measurements):
        """The gated boundary is lazy on BOTH sides (a constructed
        ChunkTable answering ``group_values`` on demand); the recorded
        ``*/eager`` variants extend both sides through eager
        materialization.  On violation the whole micro-bench re-runs
        (it is cheap) keeping the min per cell."""
        best = {(m.label, m.window): m.time_ms_per_1000
                for m in measurements}
        bar = TRANSPORT_TOL / (QUICK_NOISE if quick_mode() else 1.0)
        for _retry in range(2):
            shm = best[("transport/shm", DEFAULT_CHUNK)]
            pickle_t = best[("transport/pickle", DEFAULT_CHUNK)]
            if pickle_t / shm >= bar:
                break
            for m in transport_cost():
                key = (m.label, m.window)
                best[key] = min(best[key], m.time_ms_per_1000)
        shm = best[("transport/shm", DEFAULT_CHUNK)]
        pickle_t = best[("transport/pickle", DEFAULT_CHUNK)]
        assert pickle_t / shm >= bar, (
            f"transport at chunk={DEFAULT_CHUNK}: shm {shm:.2f} vs pickle "
            f"{pickle_t:.2f} ms/1k global rows = {pickle_t / shm:.2f}x "
            f"< {bar:.3g}x")


class TestBenchJsonEmission:
    def test_bench_document_schema(self, measurements):
        document = bench_document("columnar", measurements,
                                  quick=quick_mode(), elapsed_seconds=1.0)
        assert document["schema"] == BENCH_SCHEMA
        assert document["experiment"] == "columnar"
        assert len(document["records"]) == len(measurements)
        record = document["records"][0]
        assert {"label", "window", "time_ms_per_1000",
                "touches_per_tuple"} <= set(record)

    def test_harness_writes_bench_columnar_json(self, tmp_path, monkeypatch):
        """``python -m benchmarks.harness columnar --json-out DIR`` must
        emit a schema-valid BENCH_columnar.json."""
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        assert harness_main(["columnar", "--quick",
                             "--json-out", str(tmp_path)]) == 0
        path = tmp_path / "BENCH_columnar.json"
        document = json.loads(path.read_text())
        assert document["schema"] == BENCH_SCHEMA
        assert document["quick"] is True
        labels = {record["label"] for record in document["records"]}
        assert labels == set(TRANSPORT_LABELS)
