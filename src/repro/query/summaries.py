"""Time-partitioned bounding summaries of encoded trajectory records.

The PPQ-Trajectory idea (arXiv:2010.13721) adapted to this codec: each
stored blob is split into fixed-point-count partitions, and for each
partition we keep

* a *restart checkpoint* — the byte offset of its first point plus the
  absolute quantized integers of the point just before it — so the delta
  chain can be re-entered mid-blob (:func:`repro.storage.codec.decode_partition`),
* its time span and spatial bounding box, quantized **outward** to a
  configurable grid.

Outward quantization keeps the summary conservative: a partition whose
quantized box misses the query can never contain an answer, so pruning
on summaries is exact. The grid also makes the summary cheap to store
(coarse integers, small varints) and stable across float round-trips —
the footer serialization below reproduces the in-memory floats
bit-identically.

Partition ``k`` owns stored points ``[k*stride, (k+1)*stride)`` but its
bounds also cover the bridging point ``k*stride - 1``, so every segment
of the piecewise-linear path — including segments that cross a partition
boundary — is bounded by exactly one partition.

Summaries are held as columns, one row of :data:`PARTITION_DTYPE` per
partition (:func:`summarize_blob`, :class:`SummaryTable`); the footer
codec reads and writes those rows directly, and the
:class:`ObjectSummary` / :class:`PartitionSummary` values are built on
demand (:func:`object_summary`).
"""

from __future__ import annotations

import functools
import math
import re
import struct
from array import array
from collections import namedtuple
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from repro.exceptions import CodecError, CorruptRecordError
from repro.geometry.bbox import BBox
from repro.io_util import crc32
from repro.storage.codec import (
    decode_varint,
    decode_varints,
    encode_varint,
    encode_varints,
    partition_arrays,
)

__all__ = [
    "SummaryConfig",
    "PartitionSummary",
    "ObjectSummary",
    "PARTITION_DTYPE",
    "PartitionRow",
    "SummaryTable",
    "summarize_blob",
    "object_summary",
    "partition_values",
    "build_summary",
    "encode_footer",
    "footer_chunks",
    "parse_footer",
    "FOOTER_MAGIC",
]

FOOTER_MAGIC = b"RSUM"
_FOOTER_VERSION = 1


@dataclass(frozen=True, slots=True)
class SummaryConfig:
    """Partitioning and quantization parameters.

    Args:
        partition_points: stored points per partition; smaller values
            prune harder but cost more summary bytes.
        grid_m: spatial grid the partition boxes are rounded outward to.
        time_grid_s: temporal grid the partition spans are rounded
            outward to.
    """

    partition_points: int = 64
    grid_m: float = 25.0
    time_grid_s: float = 1.0

    def __post_init__(self) -> None:
        if self.partition_points < 1:
            raise ValueError(
                f"partition_points must be >= 1, got {self.partition_points}"
            )
        # A NaN or infinite grid would make every bound NaN, and NaN
        # bounds prune every partition.
        if not (0 < self.grid_m < math.inf and 0 < self.time_grid_s < math.inf):
            raise ValueError("summary grids must be positive and finite")

    def to_wire(self) -> dict:
        """JSON-friendly ``config`` of the ``summaries`` verb."""
        return {"partition_points": self.partition_points, "grid_m": self.grid_m,
                "time_grid_s": self.time_grid_s}


@dataclass(frozen=True, slots=True)
class PartitionSummary:
    """Checkpoint and outward-quantized bounds of one blob partition."""

    #: Byte offset of the partition's first point varints in the blob.
    offset: int
    #: Absolute quantized ``(t, x, y)`` of the point before the
    #: partition (delta base, prepended on decode), ``None`` for the
    #: first partition.
    prev: tuple[int, int, int] | None
    #: Stored points owned by the partition (excludes the bridge point).
    n_points: int
    #: Quantized-outward time span covered (bridge point included).
    t_lo: float
    t_hi: float
    #: Quantized-outward spatial bounds covered (bridge point included).
    bbox: BBox


@dataclass(frozen=True, slots=True)
class ObjectSummary:
    """All partition summaries of one stored record, plus their union."""

    object_id: str
    n_points: int
    partitions: tuple[PartitionSummary, ...]
    #: Union of the partition spans/boxes (queries prefilter on the
    #: store's catalog of exact decoded extents instead).
    t_lo: float
    t_hi: float
    bbox: BBox

    @classmethod
    def from_partitions(
        cls, object_id: str, n_points: int, parts: tuple[PartitionSummary, ...]
    ) -> "ObjectSummary":
        """Build the record-level summary as the union of ``parts``."""
        if len(parts) == 1:
            only = parts[0]
            return cls(object_id, n_points, parts, only.t_lo, only.t_hi, only.bbox)
        return cls(
            object_id,
            n_points,
            parts,
            parts[0].t_lo,
            parts[-1].t_hi,
            BBox(
                min(p.bbox.min_x for p in parts),
                min(p.bbox.min_y for p in parts),
                max(p.bbox.max_x for p in parts),
                max(p.bbox.max_y for p in parts),
            ),
        )

    def to_wire(self) -> dict:
        """JSON-friendly form for the serve ``summaries`` verb.

        Checkpoint internals (offsets, restart state) stay private to
        the store; the wire form carries only the prunable bounds.
        """
        return {
            "object": self.object_id,
            "n_points": self.n_points,
            "partitions": [
                {
                    "t0": part.t_lo,
                    "t1": part.t_hi,
                    "bbox": [
                        part.bbox.min_x, part.bbox.min_y,
                        part.bbox.max_x, part.bbox.max_y,
                    ],
                    "n": part.n_points,
                }
                for part in self.partitions
            ],
        }


#: One partition summary per row: the restart checkpoint (byte offset of
#: its first point varints, its point count, the absolute quantized point
#: before it; zeros for an object's first partition) and the
#: outward-quantized span and box, bridge point included.
PARTITION_DTYPE = np.dtype([
    ("offset", np.int64), ("n_points", np.int64),
    ("prev_t", np.int64), ("prev_x", np.int64), ("prev_y", np.int64),
    ("t_lo", np.float64), ("t_hi", np.float64),
    ("min_x", np.float64), ("min_y", np.float64),
    ("max_x", np.float64), ("max_y", np.float64),
])


class PartitionRow(namedtuple("PartitionRow", PARTITION_DTYPE.names)):
    """One :data:`PARTITION_DTYPE` row as Python values, read by field
    name (:func:`partition_values`)."""

    __slots__ = ()

    @property
    def bbox(self) -> BBox:
        """The outward-quantized box, bridge point included."""
        return BBox(self.min_x, self.min_y, self.max_x, self.max_y)

    def checkpoint(self, first: bool) -> tuple[int, int, int] | None:
        """The delta base :func:`~repro.storage.codec.decode_partition`
        takes: the point before the partition, none before an object's
        ``first``."""
        return None if first else (self.prev_t, self.prev_x, self.prev_y)


def partition_values(parts: np.ndarray) -> list[PartitionRow]:
    """Partition rows ``parts`` as :class:`PartitionRow` values."""
    return list(map(PartitionRow._make, parts.tolist()))


def _grid_floor(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Largest multiples ``n * grid <= value`` (robust to division ulps)."""
    n = np.floor(values / grid)
    n -= n * grid > values
    n += 0.0  # no negative zeros
    return n * grid


def _grid_ceil(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Smallest multiples ``n * grid >= value`` (robust to division ulps)."""
    n = np.ceil(values / grid)
    n += n * grid < values
    n += 0.0
    return n * grid


def summarize_blob(
    blob: bytes, config: SummaryConfig, rows: np.ndarray | None = None
) -> np.ndarray:
    """Summarize an encoded blob in one linear pass: its partitions as
    rows of :data:`PARTITION_DTYPE`.

    ``rows`` are the blob's decoded quantized points, when already at
    hand (see :func:`repro.storage.codec.partition_arrays`).
    """
    arrays = partition_arrays(blob, config.partition_points, rows)
    layout = arrays.layout
    # Per (t, x, y) column: the quantum, and the grid to round outward to.
    scale = np.array([layout.time_resolution_s, *[layout.coord_resolution_m] * 2])
    grid = np.array([config.time_grid_s, config.grid_m, config.grid_m])
    parts = np.empty(len(arrays.offsets), PARTITION_DTYPE)
    parts["offset"] = arrays.offsets
    parts["n_points"] = arrays.counts
    parts["prev_t"], parts["prev_x"], parts["prev_y"] = arrays.prev.T
    parts["t_lo"], parts["min_x"], parts["min_y"] = _grid_floor(arrays.lo * scale, grid).T
    parts["t_hi"], parts["max_x"], parts["max_y"] = _grid_ceil(arrays.hi * scale, grid).T
    return parts


def object_summary(object_id: str, parts: list[PartitionRow]) -> ObjectSummary:
    """The :class:`ObjectSummary` of an object's partition rows ``parts``."""
    n_points = sum(part.n_points for part in parts)
    return ObjectSummary.from_partitions(object_id, n_points, tuple(
        PartitionSummary(part.offset, part.checkpoint(index == 0), part.n_points,
                         part.t_lo, part.t_hi, part.bbox)
        for index, part in enumerate(parts)
    ))


def build_summary(
    object_id: str, blob: bytes, config: SummaryConfig, rows: np.ndarray | None = None
) -> ObjectSummary:
    """:func:`summarize_blob` as an :class:`ObjectSummary`."""
    return object_summary(object_id, partition_values(summarize_blob(blob, config, rows)))


class SummaryTable(Mapping[str, ObjectSummary]):
    """Partition summaries of many objects, held as columns.

    Object ``j`` is ``ids[j]`` and owns partition rows ``parts[first[j] :
    first[j] + count[j]]``; its stored points are theirs. As a mapping it
    builds each :class:`ObjectSummary` on access.
    """

    def __init__(self, ids: list[str], first: np.ndarray, count: np.ndarray,
                 parts: np.ndarray) -> None:
        self.ids = ids
        self.first = first
        self.count = count
        self.parts = parts
        self._index: dict[str, int] | None = None

    @classmethod
    def from_summaries(cls, summaries: Mapping[str, ObjectSummary]) -> "SummaryTable":
        """The columns of an id → summary mapping."""
        ids = list(summaries)
        count = np.array([len(summaries[key].partitions) for key in ids], np.int64)
        parts = np.array([
            (part.offset, part.n_points, *(part.prev or (0, 0, 0)), part.t_lo, part.t_hi,
             part.bbox.min_x, part.bbox.min_y, part.bbox.max_x, part.bbox.max_y)
            for key in ids for part in summaries[key].partitions
        ], PARTITION_DTYPE)
        return cls(ids, np.cumsum(count) - count, count, parts)

    def __getitem__(self, key: str) -> ObjectSummary:
        if self._index is None:
            self._index = {ident: j for j, ident in enumerate(self.ids)}
        j = self._index[key]
        first = int(self.first[j])
        rows = self.parts[first : first + int(self.count[j])]
        return object_summary(key, partition_values(rows))

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def partition_rows(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The row indices of ranges ``[first[j], first[j] + count[j])``, in order."""
    ends = np.cumsum(count)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(first - ends + count, count)


# ---------------------------------------------------------------------- #
# Store-footer serialization (file version 4)
#
#   b"RSUM" | u8 version | <Idd> partition_points grid_m time_grid_s |
#   varint n_objects | n_objects x object entry | u32 CRC-32
#
# Object entry:
#   varint id_len | id utf-8 | varint n_points | varint n_partitions |
#   per partition: varint offset_delta | varint n_points |
#     (partitions after the first) zigzag prev_t prev_x prev_y |
#     zigzag t_lo_g t_hi_g x_lo_g x_hi_g y_lo_g y_hi_g
#
# Bounds are stored as grid multiples, so decode reproduces the
# in-memory floats (``n * grid``) bit-identically. The CRC covers the
# whole footer: a torn or flipped footer is detected independently of
# the record region.
#
# Both directions run on columns: every partition is 11 varints, where an
# object's first partition carries the object's id length, point count
# and partition count in place of its (absent) restart state, ahead of
# its own fields. Objects are coded a bounded batch at a time.
# ---------------------------------------------------------------------- #

#: Partition rows coded per numpy pass (whole objects, at least one):
#: bounds the footer codec's temporaries, about 1 KB per row.
_FOOTER_ROWS = 256
_BOUNDS = ("t_lo", "t_hi", "min_x", "max_x", "min_y", "max_y")


def _batches(count: np.ndarray) -> Iterator[tuple[int, int]]:
    """Runs ``[lo, hi)`` of whole objects holding about ``_FOOTER_ROWS``
    partition rows each, when object ``j`` holds ``count[j]``."""
    ends = np.cumsum(count)
    lo = 0
    while lo < len(count):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(ends.searchsorted(done + _FOOTER_ROWS, side="right")))
        yield lo, hi
        lo = hi


def _grid_index(values: np.ndarray, grid: float) -> np.ndarray:
    """``round(value / grid)`` as int64: the grid multiple of a bound."""
    index = np.rint(values / grid)
    if not (np.abs(index) < 2.0**63).all():
        raise CodecError("summary bound outside the 64-bit grid range")
    return index.astype(np.int64)


def _encode_entries(table: SummaryTable, objects: np.ndarray, config: SummaryConfig) -> bytes:
    count = table.count[objects]
    if not count.all():
        raise CodecError(f"summary entry for {table.ids[objects[int(np.argmin(count))]]!r} "
                         f"has no partitions")
    parts = table.parts[partition_rows(table.first[objects], count)]
    heads = np.cumsum(count) - count
    idents = [table.ids[j].encode("utf-8") for j in objects.tolist()]
    tokens = np.empty((len(parts), 11), np.int64)
    tokens[:, 0] = np.diff(parts["offset"], prepend=0)
    tokens[heads, 0] = parts["offset"][heads]
    tokens[:, 1] = parts["n_points"]
    if (tokens[:, :2] < 0).any():
        raise CodecError("varint requires a non-negative value")
    for column, name in enumerate(("prev_t", "prev_x", "prev_y"), 2):
        tokens[:, column] = parts[name]
    for column, name in enumerate(_BOUNDS, 5):
        grid = config.time_grid_s if name[0] == "t" else config.grid_m
        tokens[:, column] = _grid_index(parts[name], grid)
    signed = tokens[:, 2:]
    sign = signed >> 63  # zigzag, in place
    signed <<= 1
    signed ^= sign
    tokens[heads, :5] = np.column_stack([
        [len(ident) for ident in idents], np.add.reduceat(parts["n_points"], heads), count,
        tokens[heads, 0], tokens[heads, 1],
    ])
    encoded, ends = encode_varints(tokens.view(np.uint64).ravel())
    # Each id follows its object's first varint.
    pieces = []
    start = 0
    for cut, ident in zip(ends[11 * heads].tolist(), idents):
        pieces += (encoded[start:cut], ident)
        start = cut
    pieces.append(encoded[start:])
    return b"".join(pieces)


def encode_footer(
    summaries: Mapping[str, ObjectSummary], config: SummaryConfig
) -> bytes:
    """Serialize summaries as a store-file footer block, sorted by id."""
    return b"".join(footer_chunks(summaries, config))


def footer_chunks(
    summaries: Mapping[str, ObjectSummary], config: SummaryConfig
) -> Iterator[bytes]:
    """:func:`encode_footer`'s bytes, a batch of objects at a time.

    A :class:`SummaryTable` is coded from its columns, without building
    a summary object.
    """
    table = summaries if isinstance(summaries, SummaryTable) \
        else SummaryTable.from_summaries(summaries)
    order = np.array(table.ids, dtype=object).argsort(kind="stable")
    head = bytearray()
    head += FOOTER_MAGIC
    head.append(_FOOTER_VERSION)
    head += struct.pack(
        "<Idd", config.partition_points, config.grid_m, config.time_grid_s
    )
    encode_varint(len(order), head)
    checksum = crc32(head)
    yield bytes(head)
    for lo, hi in _batches(table.count[order]):
        entries = _encode_entries(table, order[lo:hi], config)
        checksum = crc32(entries, checksum)
        yield entries
    yield struct.pack("<I", checksum)


@functools.lru_cache(maxsize=32)
def _varint_run(count: int) -> re.Pattern[bytes]:
    """Matches ``count`` back-to-back varints: continuation bytes, then a
    terminator."""
    return re.compile(rb"(?:[\x80-\xff]*[\x00-\x7f]){%d}" % count)


def _decode_entries(
    data: bytes, spans: np.ndarray, count: np.ndarray, points: np.ndarray,
    config: SummaryConfig,
) -> np.ndarray:
    """Partition rows of object entries whose ids and counts were read
    off: object ``j``'s ``count[j]`` partitions, holding its ``points[j]``
    stored points, are the varints of ``data[spans[j, 0]:spans[j, 1]]``."""
    lo = int(spans[0, 0])
    marks = np.zeros(int(spans[-1, 1]) - lo + 1, np.int8)
    marks[spans[:, 0] - lo] = 1
    marks[spans[:, 1] - lo] = -1
    inside = np.cumsum(marks[:-1], dtype=np.int8).view(bool)
    heads = np.cumsum(count) - count
    slots = np.ones((int(count.sum()), 11), bool)
    slots[heads, 2:5] = False  # no restart state before a first partition
    tokens = np.zeros(slots.shape, np.uint64)
    tokens[slots] = decode_varints(np.frombuffer(data, np.uint8, len(inside), lo)[inside])
    signed = tokens[:, 2:].view(np.int64)
    signed[...] = (tokens[:, 2:] >> np.uint64(1)).view(np.int64) ^ -(signed & 1)  # unzigzag
    # Structural sanity before building columns: corrupt bytes must
    # surface as codec errors (the footer CRC sits after the entries).
    delta, n = tokens[:, 0], tokens[:, 1]
    t_lo, t_hi, x_lo, x_hi, y_lo, y_hi = signed[:, 3:].T
    if (n < 1).any() or (n >> np.uint64(32)).any() or (delta >> np.uint64(32)).any() \
            or (t_lo > t_hi).any() or (x_lo > x_hi).any() or (y_lo > y_hi).any():
        raise CodecError("malformed summary partition entry")
    if (np.add.reduceat(n.astype(np.int64), heads) != points).any():
        raise CodecError("a summary entry's point count is not its partitions' sum")
    offsets = np.cumsum(delta.view(np.int64))
    offsets -= np.repeat(offsets[heads] - delta[heads].view(np.int64), count)
    parts = np.empty(len(tokens), PARTITION_DTYPE)
    parts["offset"] = offsets
    parts["n_points"] = n
    parts["prev_t"], parts["prev_x"], parts["prev_y"] = signed[:, :3].T
    for column, name in enumerate(_BOUNDS, 3):
        grid = config.time_grid_s if name[0] == "t" else config.grid_m
        parts[name] = signed[:, column] * grid
    return parts


def parse_footer(
    data: bytes, offset: int
) -> tuple[SummaryConfig, SummaryTable, int]:
    """Parse a footer written by :func:`encode_footer` at ``offset``.

    Returns ``(config, summaries, end_offset)``; the summaries are a
    :class:`SummaryTable`, filled without building a summary object.

    Raises:
        CodecError: malformed or truncated footer.
        CorruptRecordError: footer checksum mismatch.
    """
    start = offset
    if data[offset : offset + 4] != FOOTER_MAGIC:
        raise CodecError("not a summary footer (bad magic)")
    offset += 4
    if offset >= len(data):
        raise CodecError("truncated summary footer")
    version = data[offset]
    offset += 1
    if version != _FOOTER_VERSION:
        raise CodecError(f"unsupported summary footer version {version}")
    if offset + 20 > len(data):
        raise CodecError("truncated summary footer header")
    partition_points, grid_m, time_grid_s = struct.unpack_from("<Idd", data, offset)
    offset += 20
    try:
        config = SummaryConfig(partition_points, grid_m, time_grid_s)
    except ValueError as exc:
        raise CodecError(f"invalid summary config in footer: {exc}") from None
    body_end = len(data) - 4
    # Varints read past the entries would run into the checksum: bound them.
    body = memoryview(data)[:body_end]
    n_objects, offset = decode_varint(body, offset)
    ids: list[str] = []
    # Per object: its stored points, its partitions, and the byte span of
    # its partition entries, which are skipped here and decoded below.
    points, count, spans = array("q"), array("q"), array("q")
    for _ in range(n_objects):
        id_len, offset = decode_varint(body, offset)
        if offset + id_len > body_end:
            raise CodecError("truncated summary object id")
        try:
            key = str(body[offset : offset + id_len], "utf-8")
        except UnicodeDecodeError:
            raise CodecError("summary object id is not valid UTF-8") from None
        offset += id_len
        n_points, offset = decode_varint(body, offset)
        n_parts, offset = decode_varint(body, offset)
        if not n_parts:
            raise CodecError(f"summary entry for {key!r} has no partitions")
        varints = 11 * n_parts - 3
        run = None if varints > body_end - offset \
            else _varint_run(varints).match(data, offset, body_end)
        if run is None:
            raise CodecError("truncated varint")
        if n_points >> 63:
            raise CodecError("malformed summary partition entry")
        ids.append(key)
        points.append(n_points)
        count.append(n_parts)
        spans.extend((offset, run.end()))
        offset = run.end()
    ordered = sorted(ids)
    for key, after in zip(ordered, ordered[1:]):
        if key == after:
            raise CodecError(f"duplicate summary entry for {key!r}")
    counts = np.frombuffer(count, np.int64)
    first = np.cumsum(counts) - counts
    parts = np.empty(int(counts.sum()), PARTITION_DTYPE)
    spans_at = np.frombuffer(spans, np.int64).reshape(-1, 2)
    points_of = np.frombuffer(points, np.int64)
    for lo, hi in _batches(counts):
        parts[first[lo] : first[hi - 1] + counts[hi - 1]] = _decode_entries(
            data, spans_at[lo:hi], counts[lo:hi], points_of[lo:hi], config
        )
    if offset != body_end:
        raise CodecError(
            f"{body_end - offset} unread bytes before the footer checksum"
        )
    (stored_crc,) = struct.unpack_from("<I", data, body_end)
    actual_crc = crc32(body[start:])
    if stored_crc != actual_crc:
        raise CorruptRecordError(
            f"summary footer checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )
    return config, SummaryTable(ids, first, counts, parts), len(data)
