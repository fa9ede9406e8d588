"""Unit tests for the state-buffer implementations (repro.buffers)."""

import pytest

from repro import Counters, ExecutionError, Tuple
from repro.buffers import (
    FifoBuffer,
    HashBuffer,
    ListBuffer,
    PartitionedBuffer,
)


def t(v, ts, exp):
    return Tuple((v,), ts, exp)


def value_key(tup):
    return tup.values[0]


def make_buffer(kind, key_of=value_key, counters=None):
    if kind == "fifo":
        return FifoBuffer(key_of, counters)
    if kind == "list":
        return ListBuffer(key_of, counters)
    if kind == "partitioned":
        return PartitionedBuffer(span=10, n_partitions=4, key_of=key_of,
                                 counters=counters)
    if kind == "hash":
        return HashBuffer(key_of, counters)
    raise AssertionError(kind)


ALL_KINDS = ("fifo", "list", "partitioned", "hash")
#: The kinds the engine purges by timestamp (a hash buffer is NT-only,
#: where every expiration arrives as a negative tuple).
PURGED_KINDS = ("fifo", "list", "partitioned")


class TestCommonBufferBehaviour:
    """Contract shared by every StateBuffer implementation."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_insert_and_len(self, kind):
        buf = make_buffer(kind)
        buf.insert(t("a", 1, 5))
        buf.insert(t("b", 2, 6))
        assert len(buf) == 2
        assert sorted(x.values[0] for x in buf) == ["a", "b"]

    @pytest.mark.parametrize("kind", PURGED_KINDS)
    def test_purge_removes_exactly_expired(self, kind):
        buf = make_buffer(kind)
        buf.insert(t("a", 1, 5))
        buf.insert(t("b", 2, 6))
        buf.insert(t("c", 3, 9))
        expired = buf.purge_expired(6)
        assert sorted(x.values[0] for x in expired) == ["a", "b"]
        assert len(buf) == 1
        assert next(iter(buf)).values[0] == "c"

    @pytest.mark.parametrize("kind", PURGED_KINDS)
    def test_purge_boundary_exp_equal_now_expires(self, kind):
        buf = make_buffer(kind)
        buf.insert(t("a", 1, 5))
        assert len(buf.purge_expired(5)) == 1

    @pytest.mark.parametrize("kind", PURGED_KINDS)
    def test_purge_empty_is_safe(self, kind):
        assert make_buffer(kind).purge_expired(100) == []

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_delete_matches_values_and_exp(self, kind):
        buf = make_buffer(kind)
        stored = t("a", 1, 5)
        buf.insert(stored)
        # A negative carries the deletion time as ts; must still match.
        negative = Tuple(("a",), 4, 5, sign=-1)
        assert buf.delete(negative)
        assert len(buf) == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_delete_misses_different_exp(self, kind):
        buf = make_buffer(kind)
        buf.insert(t("a", 1, 5))
        assert not buf.delete(t("a", 1, 6))
        assert len(buf) == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_delete_removes_only_one_duplicate(self, kind):
        buf = make_buffer(kind)
        buf.insert(t("a", 1, 5))
        buf.insert(t("a", 1, 5))
        assert buf.delete(t("a", 1, 5))
        assert len(buf) == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_probe_returns_live_matches_only(self, kind):
        buf = make_buffer(kind)
        buf.insert(t("a", 1, 5))
        buf.insert(t("a", 2, 9))
        buf.insert(t("b", 3, 9))
        live = buf.probe("a", now=6)
        assert [x.exp for x in live] == [9]

    @pytest.mark.parametrize("kind", PURGED_KINDS)
    def test_probe_after_purge_sees_no_ghosts(self, kind):
        buf = make_buffer(kind)
        buf.insert(t("a", 1, 5))
        buf.purge_expired(5)
        assert buf.probe("a", now=1) == []

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_probe_after_delete_sees_no_ghosts(self, kind):
        buf = make_buffer(kind)
        buf.insert(t("a", 1, 5))
        buf.delete(t("a", 1, 5))
        assert buf.probe("a", now=1) == []

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_live_iterates_unexpired(self, kind):
        buf = make_buffer(kind)
        buf.insert(t("a", 1, 5))
        buf.insert(t("b", 2, 9))
        assert [x.values[0] for x in buf.live(6)] == ["b"]

    @pytest.mark.parametrize("kind", PURGED_KINDS)
    def test_counters_accumulate_touches(self, kind):
        counters = Counters()
        buf = make_buffer(kind, counters=counters)
        buf.insert(t("a", 1, 5))
        buf.purge_expired(10)
        assert counters.touches > 0
        assert counters.inserts == 1
        assert counters.expirations == 1


#: 2 000 tuples over 50 keys whose ``exp`` ramps across a 100-unit span in
#: arrival order: the bulk checks below fill a buffer with them.
RAMP_SPAN, RAMP_N = 100.0, 2_000


def ramp():
    return [Tuple((i % 50,), i * RAMP_SPAN / RAMP_N, (i + 1) * RAMP_SPAN / RAMP_N)
            for i in range(RAMP_N)]


def ramp_buffer(kind, counters=None):
    """A buffer of ``kind`` sized for :func:`ramp` (a partitioned ring over
    its whole span)."""
    if kind == "partitioned":
        return PartitionedBuffer(RAMP_SPAN, 10, value_key, counters)
    return make_buffer(kind, counters=counters)


def filled(kind):
    buf = ramp_buffer(kind)
    for tup in ramp():
        buf.insert(tup)
    return buf


class TestBulk:
    """Whole-buffer contracts over :func:`ramp`'s 2 000 tuples."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_insert_many_matches_scalar_inserts_exactly(self, kind):
        """Contents, order and counter charges of ``insert_many`` over
        64-tuple chunks are those of one scalar insert per tuple."""
        tuples = ramp()
        scalar_counters, bulk_counters = Counters(), Counters()
        scalar = ramp_buffer(kind, scalar_counters)
        bulk = ramp_buffer(kind, bulk_counters)
        for tup in tuples:
            scalar.insert(tup)
        for start in range(0, RAMP_N, 64):
            bulk.insert_many(tuples[start:start + 64])
        assert len(bulk) == RAMP_N
        assert list(scalar) == list(bulk)
        assert scalar_counters.snapshot() == bulk_counters.snapshot()

    @pytest.mark.parametrize("kind", PURGED_KINDS)
    def test_stepwise_purge_removes_everything_once(self, kind):
        buf = filled(kind)
        removed = sum(len(buf.purge_expired(RAMP_SPAN * (step + 1) / 100))
                      for step in range(100))
        assert removed == RAMP_N and len(buf) == 0

    @pytest.mark.parametrize("kind", ["hash", "partitioned", "list"])
    def test_negative_tuples_delete_their_match(self, kind):
        buf = filled(kind)
        for victim in ramp()[::10]:
            assert buf.delete(victim.negate())
        assert len(buf) == RAMP_N - RAMP_N // 10

    @pytest.mark.parametrize("kind", ["fifo", "hash", "partitioned"])
    def test_probes_cover_every_key(self, kind):
        buf = filled(kind)
        assert sum(len(buf.probe(key, now=0.0)) for key in range(50)) \
            == RAMP_N

    @pytest.mark.parametrize("kind", ["hash", "list"])
    def test_live_scan_sees_everything_unexpired(self, kind):
        assert sum(1 for _ in filled(kind).live(now=0.0)) == RAMP_N


class TestFifoBuffer:
    def test_rejects_non_fifo_insertion(self):
        buf = FifoBuffer()
        buf.insert(t("a", 1, 5))
        with pytest.raises(ExecutionError, match="non-FIFO"):
            buf.insert(t("b", 2, 4))

    def test_equal_exp_insertion_allowed(self):
        buf = FifoBuffer()
        buf.insert(t("a", 1, 5))
        buf.insert(t("b", 1, 5))
        assert len(buf) == 2

    def test_oldest(self):
        buf = FifoBuffer()
        assert buf.oldest() is None
        buf.insert(t("a", 1, 5))
        buf.insert(t("b", 2, 6))
        assert buf.oldest().values[0] == "a"

    def test_purge_is_pop_front_cheap(self):
        counters = Counters()
        buf = FifoBuffer(counters=counters)
        for i in range(100):
            buf.insert(t(i, i, i + 10))
        counters.reset()
        buf.purge_expired(10)  # exactly one tuple expires
        # One pop plus one head peek — not a 100-element scan.
        assert counters.touches <= 3


class TestListBuffer:
    def test_purge_scans_everything(self):
        counters = Counters()
        buf = ListBuffer(counters=counters)
        for i in range(100):
            buf.insert(t(i, i, i + 200))
        counters.reset()
        buf.purge_expired(0)  # nothing expires, but every tuple is examined
        assert counters.touches >= 100

    def test_preserves_arrival_order(self):
        buf = ListBuffer()
        for exp in (9, 5, 7):
            buf.insert(t(exp, 0, exp))
        assert [x.exp for x in buf] == [9, 5, 7]


class TestPartitionedBuffer:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ExecutionError):
            PartitionedBuffer(span=0)
        with pytest.raises(ExecutionError):
            PartitionedBuffer(span=10, n_partitions=0)

    def test_rejects_infinite_exp(self):
        buf = PartitionedBuffer(span=10)
        with pytest.raises(ExecutionError, match="finite"):
            buf.insert(Tuple(("a",), 1))

    def test_tuples_land_in_exp_partitions(self):
        buf = PartitionedBuffer(span=10, n_partitions=5)  # width 2
        buf.insert(t("a", 0, 1))
        buf.insert(t("b", 0, 3))
        buf.insert(t("c", 0, 3.5))
        sizes = buf.partition_sizes()
        assert sizes[0] == 1 and sizes[1] == 2

    def test_whole_partition_drop_is_cheap(self):
        counters = Counters()
        buf = PartitionedBuffer(span=100, n_partitions=10, counters=counters)
        # 50 tuples all expiring inside partition 0's range, 50 far away.
        for i in range(50):
            buf.insert(t(i, 0, 5 + i * 0.05))
        for i in range(50):
            buf.insert(t(100 + i, 0, 95 + i * 0.05))
        counters.reset()
        expired = buf.purge_expired(10)
        assert len(expired) == 50
        # Bounds checks on 10 partitions + the dropped tuples — but no scan
        # of the 50 survivors.
        assert counters.touches < 50 + 10 + 5

    def test_delete_scans_single_partition(self):
        counters = Counters()
        buf = PartitionedBuffer(span=100, n_partitions=10, counters=counters)
        for i in range(100):
            buf.insert(t(i, 0, i + 0.5))
        counters.reset()
        assert buf.delete(t(42, 0, 42.5))
        # Partition width is 10, so at most ~10 tuples are examined.
        assert counters.touches <= 12
        assert len(buf) == 99

    def test_circular_reuse_across_epochs(self):
        buf = PartitionedBuffer(span=10, n_partitions=5)
        buf.insert(t("a", 0, 4))
        assert len(buf.purge_expired(4)) == 1
        # exp 14 maps to the same slot as exp 4 (width 2, 5 partitions).
        buf.insert(t("b", 10, 14))
        assert len(buf) == 1
        assert len(buf.purge_expired(14)) == 1

    def test_mixed_epoch_partition_purges_correctly(self):
        # Lazy purging can leave an expired tuple in a slot that receives a
        # next-epoch tuple; purge must separate them.
        buf = PartitionedBuffer(span=10, n_partitions=5)
        buf.insert(t("old", 0, 4))
        buf.insert(t("new", 5, 14))  # same slot as exp 4
        expired = buf.purge_expired(6)
        assert [x.values[0] for x in expired] == ["old"]
        assert [x.values[0] for x in buf] == ["new"]


class TestHashBuffer:
    def test_defaults_to_full_value_key(self):
        buf = HashBuffer()
        buf.insert(t("a", 1, 5))
        assert buf.probe(("a",), now=0)[0].values == ("a",)

    def test_delete_charges_each_examined_tuple(self):
        """A hit is charged up to and including its match (the first
        ``(values, exp)`` match, whatever its ``ts``); a miss is charged
        the whole bucket."""
        counters = Counters()
        buf = HashBuffer(value_key, counters)
        for ts, exp in ((1, 5), (2, 6), (3, 6)):
            buf.insert(t("a", ts, exp))
        counters.reset()
        assert buf.delete(Tuple(("a",), 9, 6, sign=-1))
        assert (counters.touches, counters.deletes) == (2, 1)
        assert [x.ts for x in buf] == [1, 3]
        assert not buf.delete(Tuple(("a",), 9, 7, sign=-1))
        assert (counters.touches, counters.deletes, len(buf)) == (4, 1, 2)

    def test_delete_is_bucket_local(self):
        counters = Counters()
        buf = HashBuffer(value_key, counters)
        for i in range(100):
            buf.insert(t(i, i, i + 10))
        counters.reset()
        assert buf.delete(Tuple((50,), 99, 60, sign=-1))
        assert counters.touches <= 2
