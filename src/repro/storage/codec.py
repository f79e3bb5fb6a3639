"""Compact binary encoding of trajectories.

The paper motivates compression with storage arithmetic ("100 Mb ... for
just over 400 objects for a single day"); this codec is the byte-level
half of that story. Point selection (the algorithms of
:mod:`repro.core`) reduces the number of records; the codec then stores
the survivors compactly:

* timestamps and coordinates are quantized to configurable resolutions
  (defaults: 1 ms, 1 cm — far below GPS error),
* consecutive records are delta-encoded (GPS deltas are small),
* deltas are zigzag + varint encoded (small magnitudes → few bytes).

A typical car fix shrinks from 24 raw float bytes to 4–7 bytes. Decoding
reproduces the trajectory within half a quantum per field.

Durability: version-2 blobs end in a CRC-32 over everything before it,
so a torn write or bit flip is detected as a
:class:`~repro.exceptions.CorruptRecordError` instead of silently
decoding into wrong coordinates. Version-1 blobs (no checksum) are
still decoded for backward compatibility.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.exceptions import CodecError, CorruptRecordError
from repro.io_util import crc32
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "encode_varint",
    "decode_varint",
    "zigzag",
    "unzigzag",
    "encode_trajectory",
    "decode_trajectory",
    "blob_crc_ok",
    "decode_chains",
    "encode_varints",
    "decode_varints",
    "raw_size_bytes",
    "BlobLayout",
    "PartitionArrays",
    "blob_layout",
    "partition_arrays",
    "decode_partition",
]

_MAGIC = b"RTRJ"
#: Current blob version: 2 = delta/varint records + CRC-32 trailer.
_VERSION = 2
#: Oldest version still decoded (1 = no checksum trailer).
_MIN_VERSION = 1
_CRC_BYTES = 4


def zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (small |v| stays small)."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


def encode_varint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise CodecError(f"varint requires a non-negative value, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned 64-bit varint at ``offset``; ``(value, new_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result >> 64:
                raise CodecError("varint too long")
            return result, offset
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def raw_size_bytes(n_points: int) -> int:
    """Size of the naive representation: three float64 per record."""
    return 24 * n_points


def encode_trajectory(
    traj: Trajectory,
    time_resolution_s: float = 1e-3,
    coord_resolution_m: float = 0.01,
) -> bytes:
    """Serialize a trajectory to compact bytes.

    Args:
        traj: the trajectory (often an already point-compressed one).
        time_resolution_s: timestamp quantum; consecutive timestamps must
            differ by at least this much or encoding refuses (the
            round trip could otherwise collapse them).
        coord_resolution_m: coordinate quantum.

    Raises:
        CodecError: on unencodable input (non-positive resolutions,
            timestamps closer than the time quantum).

    The returned blob ends in a CRC-32 over all preceding bytes;
    :func:`decode_trajectory` verifies it, so corruption anywhere in the
    blob is detected rather than decoded.
    """
    if time_resolution_s <= 0 or coord_resolution_m <= 0:
        raise CodecError("resolutions must be positive")
    t_q = np.round(traj.t / time_resolution_s).astype(np.int64)
    x_q = np.round(traj.xy[:, 0] / coord_resolution_m).astype(np.int64)
    y_q = np.round(traj.xy[:, 1] / coord_resolution_m).astype(np.int64)
    if len(traj) > 1 and np.any(np.diff(t_q) <= 0):
        raise CodecError(
            f"timestamps closer than the {time_resolution_s} s quantum; "
            "choose a finer time resolution"
        )
    out = bytearray()
    out += _MAGIC
    out.append(_VERSION)
    object_id = (traj.object_id or "").encode("utf-8")
    encode_varint(len(object_id), out)
    out += object_id
    out += struct.pack("<dd", time_resolution_s, coord_resolution_m)
    encode_varint(len(traj), out)
    prev_t = prev_x = prev_y = 0
    for i in range(len(traj)):
        encode_varint(zigzag(int(t_q[i]) - prev_t), out)
        encode_varint(zigzag(int(x_q[i]) - prev_x), out)
        encode_varint(zigzag(int(y_q[i]) - prev_y), out)
        prev_t, prev_x, prev_y = int(t_q[i]), int(x_q[i]), int(y_q[i])
    out += struct.pack("<I", crc32(bytes(out)))
    return bytes(out)


def decode_trajectory(data: bytes, *, verify: bool = True) -> Trajectory:
    """Inverse of :func:`encode_trajectory`.

    Args:
        data: an encoded blob (version 1 or 2).
        verify: check the CRC-32 trailer of version-2 blobs (default).
            ``False`` skips the check — forensic use only.

    Raises:
        CorruptRecordError: checksum mismatch — the bytes were altered
            after encoding (torn write, bit rot).
        CodecError: on otherwise malformed or truncated input.
    """
    layout = blob_layout(data)
    rows = _decode_region(data, layout.points_offset, layout.payload_end, layout.n_points)
    if verify and not blob_crc_ok(data, layout):
        (stored_crc,) = struct.unpack_from("<I", data, layout.payload_end)
        raise CorruptRecordError(
            f"record checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {crc32(memoryview(data)[: layout.payload_end]):#010x} — "
            f"the blob was altered after encoding (torn write or bit corruption)"
        )
    return Trajectory(
        rows[:, 0] * layout.time_resolution_s,
        rows[:, 1:] * layout.coord_resolution_m,
        layout.object_id,
    )


def blob_crc_ok(data: bytes, layout: "BlobLayout") -> bool:
    """Whether a blob's CRC-32 trailer matches (version 1 has none)."""
    if layout.version < 2:
        return True
    (stored_crc,) = struct.unpack_from("<I", data, layout.payload_end)
    return stored_crc == crc32(memoryview(data)[: layout.payload_end])


# ---------------------------------------------------------------------- #
# Vectorised point decoding: every path (whole blobs, partitions, the
# store's chunked load) splits bytes into varints with numpy and runs the
# delta chains as one cumulative sum, for any number of point regions.
# ---------------------------------------------------------------------- #

#: Bytes a 64-bit varint may span; the last carries a single bit.
_MAX_VARINT_BYTES = 10


def decode_chains(
    buf: bytes | memoryview,
    bounds: Sequence[int] | np.ndarray,
    n_points: Sequence[int] | np.ndarray,
) -> tuple[np.ndarray, list[str | None]]:
    """Decode back-to-back delta-chained point regions in one numpy pass.

    Region ``r`` is ``buf[bounds[r]:bounds[r + 1]]`` and holds exactly
    ``n_points[r] >= 1`` points, each three zigzag varints ``(dt, dx,
    dy)`` relative to the previous point (the first to zero). No varint
    runs across a region boundary, so a damaged region fails alone.

    Returns:
        ``(rows, errors)``: the absolute quantized ``(t, x, y)`` of every
        point as an int64 ``(sum(n_points), 3)`` array, and per region
        ``None`` or why it failed (its rows are then meaningless).
    """
    data = np.frombuffer(buf, dtype=np.uint8)
    bounds = np.asarray(bounds, dtype=np.int64)
    counts = np.asarray(n_points, dtype=np.int64)
    size = data.size
    if not size:
        return np.zeros((int(counts.sum()), 3), np.int64), ["truncated varint"] * counts.size
    need = 3 * counts
    # A varint starts at 0, after each byte with its high bit clear, and
    # at each region bound.
    is_start = np.empty(size, dtype=bool)
    is_start[0] = True
    np.less(data[:-1], 0x80, out=is_start[1:])
    is_start[bounds[1:-1][bounds[1:-1] < size]] = True
    starts = is_start.nonzero()[0]
    # Each byte's 7-bit group lands 7 bits above the previous byte's.
    shift = np.arange(size)
    shift -= starts[is_start.cumsum() - 1]
    longest = int(shift.max()) + 1
    shift *= 7
    groups = (data & 0x7F).astype(np.uint64)
    groups <<= shift.view(np.uint64)
    values = np.bitwise_or.reduceat(groups, starts)
    first = starts.searchsorted(bounds)
    have = first[1:] - first[:-1]
    # A region's last varint is cut off when the region's last byte continues.
    cut = data[bounds[1:] - 1] >= 0x80
    bad = (have != need) | cut
    too_long = None
    if longest >= _MAX_VARINT_BYTES:
        # Wider than 64 bits: over ten bytes, or a tenth byte above 1.
        lengths = np.diff(starts, append=size)
        tenth = data[np.minimum(starts + _MAX_VARINT_BYTES - 1, size - 1)]
        too_long = (lengths > _MAX_VARINT_BYTES) | ((lengths == _MAX_VARINT_BYTES) & (tenth > 1))
        bad[first.searchsorted(too_long.nonzero()[0], side="right") - 1] = True
    errors: list[str | None] = [None] * counts.size
    for r in bad.nonzero()[0].tolist():
        lo, hi = int(first[r]), int(first[r] + need[r])
        if too_long is not None and too_long[lo:hi].any():
            errors[r] = "varint too long"
        elif have[r] <= need[r]:
            errors[r] = "truncated varint"
        else:
            errors[r] = f"{int(bounds[r + 1] - starts[hi])} trailing bytes after records"
    picked = values
    if not (have == need).all():  # failed regions hold too few or too many
        index = np.arange(int(need.sum())) + np.repeat(first[:-1] - need.cumsum() + need, need)
        picked = values[np.minimum(index, starts.size - 1)]
    rows = (picked >> np.uint64(1)).view(np.int64).reshape(-1, 3)
    rows ^= -(picked & np.uint64(1)).view(np.int64).reshape(-1, 3)
    rows.cumsum(axis=0, out=rows)
    firsts = counts.cumsum() - counts
    if counts.size > 1:  # one cumulative sum ran over every region
        rows -= np.repeat(np.vstack([[0, 0, 0], rows[firsts[1:] - 1]]), counts, axis=0)
    if 7 * longest + len(rows).bit_length() > 63 and (
        int(picked.max()).bit_length() + int(counts.max()).bit_length() > 63
    ):
        # The int64 sums may have wrapped: redo them exactly.
        chains = picked.astype(object)
        chains = ((chains >> 1) ^ -(chains & 1)).reshape(-1, 3)
        for r, lo in enumerate(firsts.tolist()):
            sums = chains[lo : lo + counts[r]].cumsum(axis=0)
            if sums.min() < -(1 << 63) or sums.max() >= 1 << 63:
                errors[r] = errors[r] or "decoded value overflows 64 bits"
    return rows, errors


def encode_varints(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """:func:`encode_varint` of every uint64 in ``values``, back to back,
    and the end offset of each varint in the result."""
    sizes = np.ones(values.size, np.uint8)
    for k in range(1, _MAX_VARINT_BYTES):
        sizes += values >= np.uint64(1 << 7 * k)
    ends = np.cumsum(sizes, dtype=np.int64)
    out = np.empty(int(ends[-1]) if ends.size else 0, np.uint8)
    starts = ends - sizes
    for k in range(int(sizes.max(initial=0))):
        # Byte k of every varint at least k + 1 bytes long.
        picked = np.flatnonzero(sizes > k) if k else slice(None)
        byte = (values[picked] >> np.uint64(7 * k)).astype(np.uint8) & np.uint8(0x7F)
        byte[sizes[picked] > k + 1] |= np.uint8(0x80)
        out[starts[picked] + k] = byte
    return out.tobytes(), ends


def decode_varints(data: bytes | memoryview) -> np.ndarray:
    """The back-to-back varints filling ``data``, as uint64; the inverse
    of :func:`encode_varints`.

    Raises:
        CodecError: the last varint is cut off, or one is wider than 64
            bits (as :func:`decode_varint` refuses it).
    """
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf < 0x80)
    if ends.size != 0 and ends[-1] != buf.size - 1 or ends.size == 0 < buf.size:
        raise CodecError("truncated varint")
    starts = np.append(0, ends[:-1] + 1)[: ends.size]
    sizes = ends - starts + 1
    if ((sizes > _MAX_VARINT_BYTES) | ((sizes == _MAX_VARINT_BYTES) & (buf[ends] > 1))).any():
        raise CodecError("varint too long")
    values = np.zeros(ends.size, np.uint64)
    for k in range(int(sizes.max(initial=0))):
        picked = np.flatnonzero(sizes > k) if k else slice(None)
        values[picked] |= (buf[starts[picked] + k] & np.uint8(0x7F)).astype(np.uint64) \
            << np.uint64(7 * k)
    return values


def _decode_region(data: bytes, start: int, stop: int, count: int) -> np.ndarray:
    """The ``count`` points of one region of ``data``; raises on damage."""
    rows, (error,) = decode_chains(memoryview(data)[start:stop], (0, stop - start), (count,))
    if error is not None:
        raise CodecError(error)
    return rows


# ---------------------------------------------------------------------- #
# Partial decoding
#
# The point stream is one delta chain, so a slice cannot be decoded
# without a restart state. Rather than change the blob format, the query
# layer keeps *checkpoints* alongside each blob: the byte offset where a
# partition's varints begin plus the absolute quantized integers of the
# point just before it. :func:`partition_arrays` derives those checkpoints
# in one linear pass at ingest time; :func:`decode_partition` then decodes
# any partition in O(partition) bytes. Partial decodes do not re-verify
# the CRC trailer — the store checks each record's checksum at load time,
# and the per-file CRC covers the checkpoints themselves.
# ---------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class BlobLayout:
    """Header facts of an encoded blob, parsed without decoding points."""

    version: int
    object_id: str | None
    time_resolution_s: float
    coord_resolution_m: float
    n_points: int
    #: Byte offset of the first point's varints.
    points_offset: int
    #: End of the point region (excludes the CRC trailer when present).
    payload_end: int


def blob_layout(data: bytes) -> BlobLayout:
    """Parse an encoded blob's header; O(header), no point decoding."""
    if len(data) < 5 or data[:4] != _MAGIC:
        raise CodecError("not a repro trajectory blob (bad magic)")
    version = data[4]
    if not _MIN_VERSION <= version <= _VERSION:
        raise CodecError(f"unsupported codec version {version}")
    end = len(data)
    if version >= 2:
        end -= _CRC_BYTES
        if end < 5:
            raise CodecError("truncated checksum trailer")
    payload = memoryview(data)[:end]
    id_len, offset = decode_varint(payload, 5)
    if offset + id_len > end:
        raise CodecError("truncated object id")
    try:
        object_id = bytes(payload[offset : offset + id_len]).decode("utf-8") or None
    except UnicodeDecodeError:
        raise CodecError("object id is not valid UTF-8") from None
    offset += id_len
    if offset + 16 > end:
        raise CodecError("truncated resolution header")
    time_res, coord_res = struct.unpack_from("<dd", data, offset)
    offset += 16
    n, offset = decode_varint(payload, offset)
    if n < 1:
        raise CodecError(f"blob declares {n} points")
    return BlobLayout(version, object_id, time_res, coord_res, n, offset, end)


class PartitionArrays(NamedTuple):
    """Every partition of one blob as columns (one row per partition).

    ``prev`` row 0 is zeros: the first partition has no delta base. The
    extents are ``(t, x, y)`` quantized integers and cover the
    partition's own points plus its bridging point.
    """

    layout: BlobLayout
    offsets: np.ndarray
    counts: np.ndarray
    prev: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def partition_arrays(
    data: bytes, stride: int, rows: np.ndarray | None = None
) -> PartitionArrays:
    """One pass over a blob, yielding its restart checkpoints as columns.

    Partition ``k`` owns points ``[k*stride, (k+1)*stride)``; its delta
    base is point ``k*stride - 1``, so decoding a partition with its
    bridge point included reproduces every segment that crosses into it.
    ``rows`` are the blob's quantized points when the caller has already
    decoded them; otherwise the blob is decoded here.
    """
    if stride < 1:
        raise CodecError(f"partition stride must be >= 1, got {stride}")
    layout = blob_layout(data)
    n = layout.n_points
    if rows is None:
        rows = _decode_region(data, layout.points_offset, layout.payload_end, n)
    firsts = np.arange(0, n, stride)
    lasts = np.minimum(firsts + stride, n) - 1
    # A partition starts after the terminator of its bridge point's dy.
    region = np.frombuffer(data, np.uint8, layout.payload_end - layout.points_offset,
                           layout.points_offset)
    offsets = np.append(0, np.flatnonzero(region < 0x80)[3 * firsts[1:] - 1] + 1)
    # Extents cover the partition's own points plus its bridge point.
    prev = np.zeros((len(firsts), 3), np.int64)
    prev[1:] = rows[firsts[1:] - 1]
    lo = np.minimum.reduceat(rows, firsts)
    hi = np.maximum.reduceat(rows, firsts)
    np.minimum(lo[1:], prev[1:], out=lo[1:])
    np.maximum(hi[1:], prev[1:], out=hi[1:])
    return PartitionArrays(layout, layout.points_offset + offsets, lasts - firsts + 1,
                           prev, lo, hi)


def decode_partition(
    data: bytes,
    layout: BlobLayout,
    offset: int,
    count: int,
    prev: tuple[int, int, int] | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode ``count`` consecutive points starting at byte ``offset``.

    Args:
        data: the full encoded blob.
        layout: its parsed header (for resolutions and bounds).
        offset: byte offset of the first point's varints.
        count: number of stored points to decode.
        prev: the delta base — absolute quantized ints of the point
            before the slice. When given, that point is *prepended* to
            the result (the bridging sample); ``None`` means the slice
            starts at the blob's first point.

    Returns:
        ``(t, xy, end_offset)`` where ``t``/``xy`` are float arrays in
        decoded units, bit-identical to the same rows of a full
        :func:`decode_trajectory`, and ``end_offset`` is the byte offset
        just past the slice.
    """
    window = memoryview(data)[offset : min(layout.payload_end, offset + 3 * _MAX_VARINT_BYTES * count)]
    ends = np.flatnonzero(np.frombuffer(window, dtype=np.uint8) < 0x80)
    if ends.size < 3 * count:
        raise CodecError("truncated varint")
    stop = offset + int(ends[3 * count - 1]) + 1
    rows = _decode_region(data, offset, stop, count)
    if prev is not None:
        rows = np.concatenate([[prev], rows + np.asarray(prev, dtype=np.int64)])
    return (
        rows[:, 0] * layout.time_resolution_s,
        rows[:, 1:] * layout.coord_resolution_m,
        stop,
    )
