"""Microbenchmarks of the state-buffer primitives.

These isolate the data-structure claims from query processing: FIFO pops vs
list scans vs partition drops for expiration, and hash vs positional
deletion.  They complement the query-level experiments — if a buffer
regresses, these localize it.
"""

import pytest

from repro import Tuple
from repro.buffers import FifoBuffer, HashBuffer, ListBuffer, PartitionedBuffer

N = 2_000
SPAN = 100.0


def _tuples():
    # exp spread uniformly over the span, arrival order == exp order.
    return [Tuple((i % 50,), i * SPAN / N, (i + 1) * SPAN / N)
            for i in range(N)]


def _key(t):
    return t.values[0]


def _fill(buffer):
    for t in _tuples():
        buffer.insert(t)
    return buffer


@pytest.mark.parametrize("factory,label", [
    (lambda: FifoBuffer(_key), "fifo"),
    (lambda: ListBuffer(_key), "list"),
    (lambda: PartitionedBuffer(SPAN, 10, _key), "partitioned"),
    (lambda: HashBuffer(_key), "hash"),
], ids=["fifo", "list", "partitioned", "hash"])
def test_insert_throughput(benchmark, factory, label):
    benchmark.pedantic(lambda: _fill(factory()), rounds=3, iterations=1)


@pytest.mark.parametrize("factory,label", [
    (lambda: FifoBuffer(_key), "fifo"),
    (lambda: ListBuffer(_key), "list"),
    (lambda: PartitionedBuffer(SPAN, 10, _key), "partitioned"),
    (lambda: HashBuffer(_key), "hash"),
], ids=["fifo", "list", "partitioned", "hash"])
def test_insert_many_throughput(benchmark, factory, label):
    """The columnar chunk plane's bulk path: one `insert_many` per chunk
    (validation pass, single extend, counters charged in bulk) instead of
    N scalar inserts.  Compare against ``test_insert_throughput`` — the
    gap is the hoisting win the chunk plane banks on."""
    chunks = [_tuples()[i:i + 64] for i in range(0, N, 64)]

    def run():
        buffer = factory()
        insert_many = buffer.insert_many
        for chunk in chunks:
            insert_many(chunk)
        assert len(buffer) == N
        return buffer

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_insert_many_matches_scalar_inserts_exactly():
    """Correctness guard under the bulk benchmark: contents, order and
    counter charges of `insert_many` are identical to N scalar inserts."""
    from repro.core.metrics import Counters

    for factory in (lambda c: FifoBuffer(_key, c),
                    lambda c: ListBuffer(_key, c),
                    lambda c: PartitionedBuffer(SPAN, 10, _key, c),
                    lambda c: HashBuffer(_key, c)):
        scalar_counters, bulk_counters = Counters(), Counters()
        scalar, bulk = factory(scalar_counters), factory(bulk_counters)
        for t in _tuples():
            scalar.insert(t)
        for start in range(0, N, 64):
            bulk.insert_many(_tuples()[start:start + 64])
        assert list(scalar) == list(bulk), type(scalar).__name__
        assert scalar_counters.snapshot() == bulk_counters.snapshot(), \
            type(scalar).__name__


@pytest.mark.parametrize("factory", [
    lambda: FifoBuffer(_key),
    lambda: ListBuffer(_key),
    lambda: PartitionedBuffer(SPAN, 10, _key),
], ids=["fifo", "list", "partitioned"])
def test_incremental_purge(benchmark, factory):
    """Expire the buffer in 100 small steps — the steady-state pattern."""

    def run():
        buffer = _fill(factory())
        removed = 0
        for step in range(100):
            removed += len(buffer.purge_expired(SPAN * (step + 1) / 100))
        assert removed == N
        return buffer

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("factory", [
    lambda: HashBuffer(_key),
    lambda: PartitionedBuffer(SPAN, 10, _key),
    lambda: ListBuffer(_key),
], ids=["hash", "partitioned", "list"])
def test_targeted_deletion(benchmark, factory):
    """Delete 200 known tuples by negative-tuple matching."""
    victims = _tuples()[::10][:200]

    def run():
        buffer = _fill(factory())
        for victim in victims:
            assert buffer.delete(victim.negate())
        return buffer

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("factory", [
    lambda: FifoBuffer(_key),
    lambda: HashBuffer(_key),
    lambda: PartitionedBuffer(SPAN, 10, _key),
], ids=["fifo", "hash", "partitioned"])
def test_probe_throughput(benchmark, factory):
    buffer = _fill(factory())

    def run():
        hits = 0
        for key in range(50):
            hits += len(buffer.probe(key, now=0.0))
        assert hits == N
        return hits

    benchmark.pedantic(run, rounds=3, iterations=2)


@pytest.mark.parametrize("factory", [
    lambda: HashBuffer(_key),
    lambda: PartitionedBuffer(SPAN, 10, _key),
], ids=["hash", "partitioned"])
def test_probe_hot_loop(benchmark, factory):
    """The join inner loop: thousands of consecutive probes on a warm
    buffer.  This is the path whose counter bookkeeping was hoisted out of
    the per-tuple iteration (one ``counters`` resolution and one touch add
    per probe rather than per examined tuple); the bulk-probe rate here is
    the direct measure of that win."""
    buffer = _fill(factory())
    keys = [i % 50 for i in range(5_000)]

    def run():
        probe = buffer.probe
        hits = 0
        for key in keys:
            hits += len(probe(key, now=0.0))
        assert hits == 5_000 * (N // 50)
        return hits

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("factory", [
    lambda: HashBuffer(_key),
    lambda: ListBuffer(_key),
], ids=["hash", "list"])
def test_live_scan_throughput(benchmark, factory):
    """Full liveness scans (the direct approach's re-evaluation pattern)
    through the hoisted ``live()`` iterator."""
    buffer = _fill(factory())

    def run():
        seen = sum(1 for _ in buffer.live(now=0.0))
        assert seen == N
        return seen

    benchmark.pedantic(run, rounds=3, iterations=2)
