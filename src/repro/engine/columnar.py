"""Columnar chunk plane: struct-of-arrays micro-batches.

The control plane resolves the event loop once per query
(:mod:`~repro.engine.program`, :mod:`~repro.engine.driver`); this module is
the data plane beside it.  A row loop moves one boxed
:class:`~repro.core.tuples.Tuple` at a time: every fused prefix pays a
closure call per arrival, every window insert pays two counter attribute
writes, and the ``process`` shard backend pays a full pickle round-trip per
chunk.  The struct-of-arrays micro-batch is the representation
batch-oriented delta processors (Kara et al., arXiv:2206.09032; Idris et
al., SIGMOD'17) use to win their constant factors:

* :class:`ChunkTable` — one column per schema field plus ``ts``/``exp``/
  ``sign`` columns, with per-row ``Tuple`` materialization deferred to
  stateful operator boundaries and DELIVER;
* a struct-packed binary codec (:func:`encode_routed`/:func:`decode_routed`)
  used by the zero-pickle shared-memory shard transport in
  :mod:`~repro.engine.shard` — one shared payload per routed chunk, tiny
  per-shard row-index headers, lazy per-stream column materialization on
  the worker side;
* :func:`take_columns`, the column-wise projection the driver's column
  micro-batch loop evaluates fused ``map_indices`` kernels with.  The loop
  itself, the rule that decides when a program takes it, and the argument
  that it is exact live in :mod:`~repro.engine.driver`.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from array import array
from typing import Sequence

from ..errors import ExecutionError
from ..streams.stream import Arrival, Event, Tick

#: Rows below this threshold take the per-row projection path; above it the
#: double-transpose (zip to columns, gather, zip back) wins because both
#: transposes run at C speed.
_TRANSPOSE_MIN = 8


# ---------------------------------------------------------------------------
# ChunkTable — the struct-of-arrays micro-batch
# ---------------------------------------------------------------------------


class ChunkTable:
    """A micro-batch of stream events in struct-of-arrays layout.

    Parallel arrays over the rows: ``streams[i]`` (``None`` for a pure
    clock tick), ``ts[i]``, and the value columns.  Two backings exist:

    * *row-backed* (built by :meth:`from_events` on the feeding side):
      value tuples are kept per row, columns are derived lazily;
    * *column-backed* (built by :func:`decode_routed` on the worker side):
      per-stream columns sit undecoded in a shared-memory segment;
      ``streams`` is ``None`` (labels reconstructible from ``groups``) and
      row tuples are materialized lazily, per stream, at the stateful
      boundary that needs them — streams the worker's plan never touches
      are never decoded at all.

    ``exp`` and ``sign`` columns exist implicitly for transported chunks:
    arrivals are unstamped (``exp`` is assigned by the window leaf, sign is
    positive by construction), so the codec never ships them; the driver's
    column phase stamps ``exp`` in bulk from the ``ts`` column.
    """

    __slots__ = ("n", "streams", "ts", "_values", "_groups", "_group_rows",
                 "_flags", "_lazy", "_events")

    def __init__(self, n: int, streams: list | None, ts: list,
                 values: list | None = None,
                 groups: dict | None = None,
                 group_rows: dict | None = None,
                 flags: list | None = None,
                 lazy: tuple | None = None):
        self.n = n
        self.streams = streams
        self.ts = ts
        self._values = values
        self._groups = groups
        self._group_rows = group_rows
        self._flags = flags
        self._lazy = lazy
        self._events: list | None = None

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "ChunkTable | None":
        """Columnarize a batch of events; ``None`` if any event is not an
        arrival or tick (relation updates stay on the reference path).

        Builds the per-stream row grouping in the same pass — the column
        phase consumes it immediately, and a second scan over the batch
        would charge the chunk plane for work the row loop never does.
        """
        kinds = set(map(type, events))
        if kinds == {Arrival}:
            # All-arrival fast path (the executor's normal batches): three
            # C-speed gathers, then one tight grouping loop.
            streams = [event.stream for event in events]
            ts = [event.ts for event in events]
            values = [event.values for event in events]
            groups: dict = {}
            groups_get = groups.get
            r = 0
            for stream in streams:
                rows = groups_get(stream)
                if rows is None:
                    groups[stream] = [r]
                else:
                    rows.append(r)
                r += 1
            return cls(len(streams), streams, ts, values, groups=groups)
        if not kinds <= {Arrival, Tick}:
            return None
        streams = []
        ts = []
        values = []
        groups = {}
        r = 0
        for event in events:
            if event.__class__ is Arrival:
                stream = event.stream
                streams.append(stream)
                ts.append(event.ts)
                values.append(event.values)
                rows = groups.get(stream)
                if rows is None:
                    groups[stream] = [r]
                else:
                    rows.append(r)
            else:
                streams.append(None)
                ts.append(event.ts)
                values.append(None)
            r += 1
        return cls(r, streams, ts, values, groups=groups)

    # -- grouping (the per-stream view the column phase consumes) ----------

    def groups(self) -> dict:
        """``stream -> [row indices]`` in arrival order (ticks excluded)."""
        groups = self._groups
        if groups is None:
            groups = {}
            for r, stream in enumerate(self.streams):
                if stream is None:
                    continue
                rows = groups.get(stream)
                if rows is None:
                    groups[stream] = [r]
                else:
                    rows.append(r)
            self._groups = groups
        return groups

    def group_values(self, stream: str) -> list:
        """Value tuples of one stream's rows, in arrival order.

        Column-backed tables materialize them here — decode the stream's
        column section from the shared segment and transpose with one
        C-speed ``zip`` — which is the lazy-materialization boundary for
        transported chunks.
        """
        group_rows = self._group_rows
        if group_rows is not None:
            rows = group_rows.get(stream)
            if rows is None and self._lazy is not None:
                view, specs = self._lazy
                rows = _decode_columns(view, *specs[stream])
                group_rows[stream] = rows
            return rows
        values = self._values
        return [values[r] for r in self.groups()[stream]]

    def arrival_flags(self) -> list:
        """Per-row arrival markers, ``None`` for ticks — ``streams``
        itself for row-backed tables, the decoded marker list for
        transported ones (whose ``streams`` stays unmaterialized)."""
        flags = self._flags
        if flags is None:
            return self.streams
        return flags

    def stream_labels(self) -> list:
        """Per-row stream names (``None`` for ticks), materializing them
        from the groups for column-backed tables (fallback paths only)."""
        streams = self.streams
        if streams is None:
            streams = [None] * self.n
            for stream, rows in self.groups().items():
                for r in rows:
                    streams[r] = stream
            self.streams = streams
        return streams

    # -- row views (fallback paths only) ------------------------------------

    def row_values(self) -> list:
        """Per-row value tuples in global order (``None`` for ticks)."""
        if self._values is None:
            values: list = [None] * self.n
            for stream, rows in self.groups().items():
                for r, v in zip(rows, self.group_values(stream)):
                    values[r] = v
            self._values = values
        return self._values

    def to_events(self) -> list:
        """Plain events — the escape hatch for row-loop consumers —
        materialized once however many drivers ask."""
        if self._events is None:
            values = self.row_values()
            ts = self.ts
            self._events = [Tick(ts[r]) if stream is None
                            else Arrival(ts[r], stream, values[r])
                            for r, stream in enumerate(self.stream_labels())]
        return self._events

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        backing = "cols" if self._group_rows is not None else "rows"
        return f"ChunkTable(n={self.n}, streams={len(self.groups())}, {backing})"


# ---------------------------------------------------------------------------
# Binary codec (the zero-pickle shard transport payload)
# ---------------------------------------------------------------------------
#
# One payload per *routed* chunk, shared by every shard (layout, LE):
#   u32  global row count m            (m <= 0xFFFE so row indices fit u16)
#   u16  stream-table size k, then k × (u16 length + utf-8 name)
#   m  × f8   ts column (identical across shards by router construction)
#   per stream, in table order:
#     u16  total value-row count c,  u16  width w,  u32  section bytes
#     w  × column: u8 type tag + payload
#        'q' int64 array   'd' float64 array
#        'u' utf-8 strings, piecewise: u8 piece count p, p × (u16 value
#            offset + u32 byte offset), u32 blob bytes, then the blob —
#            one shard's piece per entry, each piece its values joined
#            with the ASCII unit separator (one C-speed join + encode per
#            piece on the way in; a shard decodes and splits only its own
#            piece's bytes on the way out)
#        'p' pickled object column (per-column fallback for mixed or
#            exotic value types, including strings containing the
#            separator — the chunk stays columnar, only the one column
#            pays the pickle)
#
# Each stream section concatenates the shards' value rows in shard order,
# so every value is encoded exactly once per routed chunk and any shard's
# share of any column is one contiguous ``[offset, offset + count)`` slice.
# The pipes carry only per-shard headers of ``(stream_idx, offset, count,
# row_indices_u16)`` tuples; the section byte count lets a worker hop over
# streams it owns no rows of in O(1), and :class:`ChunkTable` defers each
# owned stream's column decode until — unless — the plan touches it.
#
# Arrivals are unstamped, so no exp/sign columns are shipped; the column
# phase stamps exp in bulk and signs are positive by construction.

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_HHI = struct.Struct("<HHI")
_HI = struct.Struct("<HI")


#: Separator for joined string columns — ASCII unit separator, absent from
#: any sane attribute value; a column containing it falls back to pickle.
_SEP = "\x1f"

#: Event classes the routed codec can represent; anything else (relation
#: updates) is broadcast by the router, so checking shard 0 sees it.
_ROUTABLE = frozenset((Arrival, Tick))


def _pack_column(column: tuple, out: list, piece_starts) -> None:
    """Append one merged column's wire encoding to ``out``.

    ``piece_starts`` are the value offsets where each shard's contiguous
    run begins (ascending, first 0) — string columns are joined per piece
    so a shard can later decode only its own byte range.
    """
    first = column[0].__class__
    if first is int:
        if set(map(type, column)) == {int}:
            try:
                payload = array("q", column).tobytes()
            except OverflowError:
                payload = None
            if payload is not None:
                out.append(b"q")
                out.append(payload)
                return
    elif first is float:
        if set(map(type, column)) == {float}:
            out.append(b"d")
            out.append(array("d", column).tobytes())
            return
    elif first is str:
        if set(map(type, column)) == {str}:
            # One C-speed join + encode per shard piece; per-string
            # length prefixes would cost a Python-level encode per value.
            pieces: list = []
            table: list = []
            nbytes = 0
            n_pieces = len(piece_starts)
            ok = True
            for i, start in enumerate(piece_starts):
                stop = (piece_starts[i + 1] if i + 1 < n_pieces
                        else len(column))
                joined = _SEP.join(column[start:stop])
                if joined.count(_SEP) != stop - start - 1:
                    ok = False  # separator collision: pickle fallback
                    break
                payload = joined.encode("utf-8")
                table.append(_HI.pack(start, nbytes))
                pieces.append(payload)
                nbytes += len(payload)
            if ok:
                out.append(b"u")
                out.append(bytes((n_pieces,)))
                out += table
                out.append(_U32.pack(nbytes))
                out += pieces
                return
    payload = pickle.dumps(column, protocol=pickle.HIGHEST_PROTOCOL)
    out.append(b"p")
    out.append(_U32.pack(len(payload)))
    out.append(payload)


def stable_hash(value: object) -> int:
    """Process- and run-stable hash used for shard routing.

    Python's built-in ``hash`` is randomized per interpreter (PYTHONHASHSEED),
    so a forked worker restarted across runs — or the parent vs. an analysis
    script — would disagree on placements.  CRC32 of ``repr(value)`` is
    deterministic everywhere and cheap for the short strings and tuples used
    as keys.  Lives beside the codec because :func:`encode_routed` fuses
    routing into encoding (the crc is inlined in its hot loop);
    :class:`~repro.engine.shard.ShardRouter` re-exports it.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


def encode_routed(chunk, key_index: dict, n_shards: int):
    """Fused route + encode: one pass over a *global* chunk straight to
    the shared wire payload plus one tiny row-index header per shard.

    Replaces ``route_chunk`` + per-shard encodes on the shm fast path: no
    per-shard event lists, no ``Tick`` materialization for foreign rows
    (a worker reconstructs the timeline from the shared ``ts`` column and
    its header), and every value packed exactly once, shard-major per
    stream.  ``key_index`` maps stream name to its routing-key column
    (``None``/missing = hash the full value tuple), matching
    :meth:`~repro.engine.shard.ShardRouter.shard_of` bit for bit.

    Returns ``(payload, headers, shard_arrivals, broadcasts)`` — the last
    two are the routing statistics the caller folds into the router,
    identical to what ``route_chunk`` would have counted — or ``None``
    when the chunk is not representable (relation updates, ragged value
    tuples, more than 0xFFFE rows); the caller then falls back to
    ``route_chunk`` and the pickle pipe.
    """
    m = len(chunk)
    if m > 0xFFFE or n_shards > 0xFF:
        return None
    if not set(map(type, chunk)) <= _ROUTABLE:
        return None
    crc = zlib.crc32
    cache = _KEY_HASH_CACHE
    cache_get = cache.get
    index_get = key_index.get
    ts: list = []
    shard_arrivals = [0] * n_shards
    broadcasts = 0
    entries: dict = {}  # stream -> (rows per shard, value tuples per shard)
    entries_get = entries.get
    r = 0
    for event in chunk:
        ts.append(event.ts)
        if event.__class__ is Arrival:
            stream = event.stream
            entry = entries_get(stream)
            if entry is None:
                entry = ([[] for _ in range(n_shards)],
                         [[] for _ in range(n_shards)])
                entries[stream] = entry
            index = index_get(stream)
            values = event.values
            key = values if index is None else values[index]
            # Memoize crc(repr(key)) for exact-str keys only: equal
            # strings have equal reprs, while 1 == 1.0 == True collide in
            # a dict despite distinct reprs (and hence distinct shards).
            if key.__class__ is str:
                digest = cache_get(key)
                if digest is None:
                    digest = crc(repr(key).encode("utf-8"))
                    if len(cache) < 0x10000:
                        cache[key] = digest
            else:
                digest = crc(repr(key).encode("utf-8"))
            target = digest % n_shards
            shard_arrivals[target] += 1
            entry[0][target].append(r)
            entry[1][target].append(values)
        else:
            broadcasts += 1
        r += 1
    out: list = [_U32.pack(m), _U16.pack(len(entries))]
    for name in entries:
        encoded = name.encode("utf-8")
        out.append(_U16.pack(len(encoded)))
        out.append(encoded)
    out.append(array("d", ts).tobytes())
    headers: list = [[] for _ in range(n_shards)]
    for ti, (rows_by_shard, vals_by_shard) in enumerate(entries.values()):
        all_vals: list = []
        piece_starts: list = []
        offset = 0
        for si in range(n_shards):
            rows = rows_by_shard[si]
            if rows:
                headers[si].append((ti, offset, len(rows),
                                    array("H", rows).tobytes()))
                piece_starts.append(offset)
                offset += len(rows)
                all_vals += vals_by_shard[si]
        widths = set(map(len, all_vals))
        if len(widths) != 1:
            return None  # ragged stream; reference path handles it
        section: list = []
        for column in zip(*all_vals):
            _pack_column(column, section, piece_starts)
        out.append(_HHI.pack(len(all_vals), widths.pop(),
                             sum(map(len, section))))
        out += section
    return b"".join(out), headers, shard_arrivals, broadcasts


#: Memo of crc(repr(key)) for string routing keys (bounded; see above).
_KEY_HASH_CACHE: dict = {}


def decode_routed(buf, header) -> ChunkTable:
    """Decode one shard's view of a routed payload into a column-backed
    :class:`ChunkTable`.

    ``buf`` is any buffer (typically a ``memoryview`` over the shared
    segment); ``header`` is this shard's entry of the
    :func:`encode_routed` result.  Only the timeline (``ts``), the row
    grouping and the arrival flags are materialized here; value columns
    stay undecoded in the buffer until :meth:`ChunkTable.group_values`
    asks for a stream — streams the worker's plan never touches are never
    decoded at all.
    """
    view = memoryview(buf)
    (m,) = _U32.unpack_from(view, 0)
    (k,) = _U16.unpack_from(view, 4)
    pos = 6
    names: list = []
    for _ in range(k):
        (length,) = _U16.unpack_from(view, pos)
        pos += 2
        names.append(str(view[pos:pos + length], "utf-8"))
        pos += length
    ts_col = array("d")
    ts_col.frombytes(view[pos:pos + 8 * m])
    pos += 8 * m
    mine = {entry[0]: entry for entry in header}
    groups: dict = {}
    specs: dict = {}
    flags: list = [None] * m
    for ti in range(k):
        total, width, nbytes = _HHI.unpack_from(view, pos)
        pos += 8
        entry = mine.get(ti)
        if entry is not None:
            _ti, offset, count, rows_bytes = entry
            rows = array("H")
            rows.frombytes(rows_bytes)
            rows = rows.tolist()
            name = names[ti]
            groups[name] = rows
            specs[name] = (pos, total, width, offset, count)
            for r in rows:
                flags[r] = 1
        pos += nbytes
    return ChunkTable(m, None, ts_col.tolist(), groups=groups,
                      group_rows={}, flags=flags, lazy=(view, specs))


def _decode_columns(view, pos, total, width, offset, count) -> list:
    """Materialize one shard's contiguous slice of one stream's value
    tuples from its column section — the lazy half of
    :func:`decode_routed`.  Numeric columns slice at the byte level;
    string columns are stored as per-shard pieces, so only this shard's
    bytes are decoded; the pickle fallback decodes the full column once
    and slices the result."""
    end = offset + count
    whole = count == total
    columns: list = []
    for _ in range(width):
        tag = view[pos]
        pos += 1
        if tag == 113:  # 'q'
            col = array("q")
            col.frombytes(view[pos + 8 * offset:pos + 8 * end])
            pos += 8 * total
            columns.append(col.tolist())
        elif tag == 100:  # 'd'
            col = array("d")
            col.frombytes(view[pos + 8 * offset:pos + 8 * end])
            pos += 8 * total
            columns.append(col.tolist())
        elif tag == 117:  # 'u'
            n_pieces = view[pos]
            pos += 1
            start = stop = -1
            for i in range(n_pieces):
                value_offset, byte_offset = _HI.unpack_from(view, pos + 6 * i)
                if start >= 0:
                    stop = byte_offset
                    break
                if value_offset == offset:
                    start = byte_offset
            pos += 6 * n_pieces
            (nbytes,) = _U32.unpack_from(view, pos)
            pos += 4
            if start < 0:  # pragma: no cover - closed format
                raise ExecutionError(
                    f"corrupt chunk: no string piece at offset {offset}")
            if stop < 0:
                stop = nbytes
            columns.append(
                str(view[pos + start:pos + stop], "utf-8").split(_SEP))
            pos += nbytes
        elif tag == 112:  # 'p'
            (length,) = _U32.unpack_from(view, pos)
            pos += 4
            col = pickle.loads(view[pos:pos + length])
            pos += length
            columns.append(col if whole else col[offset:end])
        else:  # pragma: no cover - closed format
            raise ExecutionError(f"corrupt chunk column tag {tag!r}")
    return list(zip(*columns)) if width else [()] * count


# ---------------------------------------------------------------------------
# Column-wise projection
# ---------------------------------------------------------------------------


def take_columns(rows: list, indices) -> list:
    """Column-wise projection: gather ``indices`` from a row block.

    Above :data:`_TRANSPOSE_MIN` rows the block is transposed to columns,
    the column subset gathered in O(width), and transposed back — both
    transposes are C-speed ``zip``.  Small blocks stay per-row.
    """
    if len(rows) >= _TRANSPOSE_MIN:
        columns = list(zip(*rows))
        return list(zip(*[columns[i] for i in indices]))
    return [tuple(row[i] for i in indices) for row in rows]


__all__ = [
    "ChunkTable",
    "decode_routed",
    "encode_routed",
    "stable_hash",
    "take_columns",
]
