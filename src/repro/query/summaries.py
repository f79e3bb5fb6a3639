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
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.exceptions import CodecError, CorruptRecordError
from repro.geometry.bbox import BBox
from repro.io_util import crc32
from repro.storage.codec import (
    decode_varint,
    encode_varint,
    scan_partitions,
    unzigzag,
    zigzag,
)

__all__ = [
    "SummaryConfig",
    "PartitionSummary",
    "ObjectSummary",
    "build_summary",
    "encode_footer",
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
        if self.grid_m <= 0 or self.time_grid_s <= 0:
            raise ValueError("summary grids must be positive")

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

    def covers_time(self, when: float) -> bool:
        """True when the quantized time span contains ``when``."""
        return self.t_lo <= when <= self.t_hi

    def overlaps_window(self, t0: float, t1: float) -> bool:
        """True when the quantized time span intersects ``[t0, t1]``."""
        return self.t_lo <= t1 and self.t_hi >= t0


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


def _grid_floor(value: float, grid: float) -> int:
    """Largest ``n`` with ``n * grid <= value`` (robust to division ulps)."""
    n = math.floor(value / grid)
    if n * grid > value:
        n -= 1
    return n


def _grid_ceil(value: float, grid: float) -> int:
    """Smallest ``n`` with ``n * grid >= value`` (robust to division ulps)."""
    n = math.ceil(value / grid)
    if n * grid < value:
        n += 1
    return n


def build_summary(
    object_id: str, blob: bytes, config: SummaryConfig, rows: np.ndarray | None = None
) -> ObjectSummary:
    """Summarize an encoded blob in one linear pass.

    ``rows`` are the blob's decoded quantized points, when already at
    hand (see :func:`repro.storage.codec.scan_partitions`).
    """
    layout, raw = scan_partitions(blob, config.partition_points, rows)
    t_res = layout.time_resolution_s
    c_res = layout.coord_resolution_m
    parts = []
    for part in raw:
        t_lo_g = _grid_floor(part.t_lo_q * t_res, config.time_grid_s)
        t_hi_g = _grid_ceil(part.t_hi_q * t_res, config.time_grid_s)
        x_lo_g = _grid_floor(part.x_lo_q * c_res, config.grid_m)
        x_hi_g = _grid_ceil(part.x_hi_q * c_res, config.grid_m)
        y_lo_g = _grid_floor(part.y_lo_q * c_res, config.grid_m)
        y_hi_g = _grid_ceil(part.y_hi_q * c_res, config.grid_m)
        parts.append(PartitionSummary(
            offset=part.offset,
            prev=part.prev,
            n_points=part.n_points,
            t_lo=t_lo_g * config.time_grid_s,
            t_hi=t_hi_g * config.time_grid_s,
            bbox=BBox(
                x_lo_g * config.grid_m, y_lo_g * config.grid_m,
                x_hi_g * config.grid_m, y_hi_g * config.grid_m,
            ),
        ))
    return ObjectSummary.from_partitions(object_id, layout.n_points, tuple(parts))


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
# ---------------------------------------------------------------------- #


def encode_footer(
    summaries: Mapping[str, ObjectSummary], config: SummaryConfig
) -> bytes:
    """Serialize summaries as a store-file footer block."""
    out = bytearray()
    out += FOOTER_MAGIC
    out.append(_FOOTER_VERSION)
    out += struct.pack(
        "<Idd", config.partition_points, config.grid_m, config.time_grid_s
    )
    encode_varint(len(summaries), out)
    for key in sorted(summaries):
        summary = summaries[key]
        ident = key.encode("utf-8")
        encode_varint(len(ident), out)
        out += ident
        encode_varint(summary.n_points, out)
        encode_varint(len(summary.partitions), out)
        prev_offset = 0
        for part in summary.partitions:
            encode_varint(part.offset - prev_offset, out)
            prev_offset = part.offset
            encode_varint(part.n_points, out)
            if part.prev is not None:
                for value in part.prev:
                    encode_varint(zigzag(value), out)
            encode_varint(zigzag(round(part.t_lo / config.time_grid_s)), out)
            encode_varint(zigzag(round(part.t_hi / config.time_grid_s)), out)
            encode_varint(zigzag(round(part.bbox.min_x / config.grid_m)), out)
            encode_varint(zigzag(round(part.bbox.max_x / config.grid_m)), out)
            encode_varint(zigzag(round(part.bbox.min_y / config.grid_m)), out)
            encode_varint(zigzag(round(part.bbox.max_y / config.grid_m)), out)
    out += struct.pack("<I", crc32(bytes(out)))
    return bytes(out)


def parse_footer(
    data: bytes, offset: int
) -> tuple[SummaryConfig, dict[str, ObjectSummary], int]:
    """Parse a footer written by :func:`encode_footer` at ``offset``.

    Returns ``(config, summaries, end_offset)``.

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
    summaries: dict[str, ObjectSummary] = {}
    for _ in range(n_objects):
        id_len, offset = decode_varint(body, offset)
        if offset + id_len > body_end:
            raise CodecError("truncated summary object id")
        try:
            key = bytes(body[offset : offset + id_len]).decode("utf-8")
        except UnicodeDecodeError:
            raise CodecError("summary object id is not valid UTF-8") from None
        offset += id_len
        n_points, offset = decode_varint(body, offset)
        n_parts, offset = decode_varint(body, offset)
        parts = []
        prev_offset = 0
        for index in range(n_parts):
            delta, offset = decode_varint(body, offset)
            part_offset = prev_offset + delta
            prev_offset = part_offset
            part_points, offset = decode_varint(body, offset)
            prev: tuple[int, int, int] | None = None
            if index:
                restart = []
                for _ in range(3):
                    value, offset = decode_varint(body, offset)
                    restart.append(unzigzag(value))
                prev = (restart[0], restart[1], restart[2])
            grids = []
            for _ in range(6):
                value, offset = decode_varint(body, offset)
                grids.append(unzigzag(value))
            t_lo_g, t_hi_g, x_lo_g, x_hi_g, y_lo_g, y_hi_g = grids
            # Structural sanity before building value objects: corrupt
            # bytes must surface as codec errors, not constructor
            # failures (the footer CRC sits after the entries).
            if part_points < 1 or t_lo_g > t_hi_g or x_lo_g > x_hi_g \
                    or y_lo_g > y_hi_g:
                raise CodecError("malformed summary partition entry")
            parts.append(PartitionSummary(
                offset=part_offset,
                prev=prev,
                n_points=part_points,
                t_lo=t_lo_g * time_grid_s,
                t_hi=t_hi_g * time_grid_s,
                bbox=BBox(
                    x_lo_g * grid_m, y_lo_g * grid_m,
                    x_hi_g * grid_m, y_hi_g * grid_m,
                ),
            ))
        if key in summaries:
            raise CodecError(f"duplicate summary entry for {key!r}")
        if not parts:
            raise CodecError(f"summary entry for {key!r} has no partitions")
        summaries[key] = ObjectSummary.from_partitions(key, n_points, tuple(parts))
    if offset != body_end:
        raise CodecError(
            f"{body_end - offset} unread bytes before the footer checksum"
        )
    (stored_crc,) = struct.unpack_from("<I", data, body_end)
    actual_crc = crc32(data[start:body_end])
    if stored_crc != actual_crc:
        raise CorruptRecordError(
            f"summary footer checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )
    return config, summaries, len(data)
