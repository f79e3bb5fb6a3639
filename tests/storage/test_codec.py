"""Tests for the delta/varint trajectory codec."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CodecError, CorruptRecordError, ReproError
from repro.io_util import crc32
from repro.storage import (
    decode_trajectory,
    decode_varint,
    encode_trajectory,
    encode_varint,
    raw_size_bytes,
    unzigzag,
    zigzag,
)
from repro.storage.codec import (
    blob_crc_ok,
    blob_layout,
    decode_chains,
    decode_partition,
    partition_arrays,
)
from repro.trajectory import Trajectory

from tests.conftest import trajectories


class TestZigzagVarint:
    @pytest.mark.parametrize(
        "value,expected", [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)]
    )
    def test_zigzag_known_values(self, value, expected):
        assert zigzag(value) == expected
        assert unzigzag(expected) == value

    @given(st.integers(-(2**62), 2**62))
    def test_zigzag_roundtrip(self, value):
        assert unzigzag(zigzag(value)) == value

    @given(st.integers(0, 2**63))
    def test_varint_roundtrip(self, value):
        out = bytearray()
        encode_varint(value, out)
        decoded, offset = decode_varint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_varint_small_values_one_byte(self):
        out = bytearray()
        encode_varint(100, out)
        assert len(out) == 1

    def test_varint_rejects_negative(self):
        with pytest.raises(CodecError):
            encode_varint(-1, bytearray())

    def test_truncated_varint(self):
        with pytest.raises(CodecError, match="truncated"):
            decode_varint(b"\x80", 0)


class TestTrajectoryCodec:
    def test_roundtrip_within_quantum(self, zigzag: Trajectory):
        blob = encode_trajectory(zigzag)
        back = decode_trajectory(blob)
        assert back.object_id == "zigzag"
        assert len(back) == len(zigzag)
        np.testing.assert_allclose(back.t, zigzag.t, atol=0.5e-3)
        np.testing.assert_allclose(back.xy, zigzag.xy, atol=0.5e-2)

    def test_compression_beats_raw(self, urban_trajectory):
        blob = encode_trajectory(urban_trajectory)
        assert len(blob) < raw_size_bytes(len(urban_trajectory)) / 2

    def test_single_point(self):
        traj = Trajectory.from_points([(12.5, 3.25, -7.75)], object_id="p")
        back = decode_trajectory(encode_trajectory(traj))
        assert len(back) == 1
        np.testing.assert_allclose(back.t, [12.5], atol=1e-3)

    def test_missing_object_id_roundtrips_as_none(self):
        traj = Trajectory.from_points([(0, 0, 0), (1, 1, 1)])
        assert decode_trajectory(encode_trajectory(traj)).object_id is None

    def test_rejects_timestamps_below_quantum(self):
        traj = Trajectory.from_points([(0, 0, 0), (1e-6, 1, 1)])
        with pytest.raises(CodecError, match="quantum"):
            encode_trajectory(traj)

    def test_custom_resolutions(self, zigzag: Trajectory):
        blob = encode_trajectory(zigzag, time_resolution_s=1.0, coord_resolution_m=1.0)
        back = decode_trajectory(blob)
        np.testing.assert_allclose(back.t, zigzag.t, atol=0.5)
        np.testing.assert_allclose(back.xy, zigzag.xy, atol=0.5)

    def test_rejects_bad_resolution(self, zigzag: Trajectory):
        with pytest.raises(CodecError):
            encode_trajectory(zigzag, time_resolution_s=0.0)

    def test_rejects_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            decode_trajectory(b"NOPE\x01\x00")

    def test_rejects_bad_version(self, zigzag: Trajectory):
        blob = bytearray(encode_trajectory(zigzag))
        blob[4] = 99
        with pytest.raises(CodecError, match="version"):
            decode_trajectory(bytes(blob))

    def test_rejects_trailing_garbage(self, zigzag: Trajectory):
        blob = encode_trajectory(zigzag) + b"\x00\x00"
        with pytest.raises(CodecError, match="trailing"):
            decode_trajectory(blob)

    def test_rejects_truncation(self, zigzag: Trajectory):
        blob = encode_trajectory(zigzag)
        with pytest.raises(CodecError):
            decode_trajectory(blob[: len(blob) // 2])

    @settings(max_examples=40, deadline=None)
    @given(trajectories(min_points=1, max_points=40))
    def test_property_roundtrip_bounded_error(self, traj):
        blob = encode_trajectory(traj)
        back = decode_trajectory(blob)
        assert len(back) == len(traj)
        np.testing.assert_allclose(back.t, traj.t, atol=0.51e-3)
        np.testing.assert_allclose(back.xy, traj.xy, atol=0.51e-2)


# ---------------------------------------------------------------------- #
# The vectorised point decoder against the scalar loop it replaced
# ---------------------------------------------------------------------- #


def scalar_points(blob: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The per-varint delta-chain loop every decode path used to copy.

    Returns the absolute quantized ``t``, ``x``, ``y`` and the offset
    just past the last point.
    """
    layout = blob_layout(blob)
    payload = blob[: layout.payload_end]
    offset = layout.points_offset
    n = layout.n_points
    t = np.empty(n, dtype=np.int64)
    x = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    prev_t = prev_x = prev_y = 0
    for i in range(n):
        dt, offset = decode_varint(payload, offset)
        dx, offset = decode_varint(payload, offset)
        dy, offset = decode_varint(payload, offset)
        prev_t += unzigzag(dt)
        prev_x += unzigzag(dx)
        prev_y += unzigzag(dy)
        try:
            t[i] = prev_t
            x[i] = prev_x
            y[i] = prev_y
        except OverflowError:
            raise CodecError("decoded value overflows 64 bits") from None
    if offset != len(payload):
        raise CodecError(f"{len(payload) - offset} trailing bytes after records")
    return t, x, y, offset


def scalar_decode(blob: bytes) -> Trajectory:
    """Oracle for :func:`decode_trajectory`: the scalar loop, then the
    same CRC check and ``Trajectory`` validation."""
    layout = blob_layout(blob)
    t, x, y, _ = scalar_points(blob)
    if not blob_crc_ok(blob, layout):
        raise CorruptRecordError("record checksum mismatch")
    return Trajectory(
        t.astype(float) * layout.time_resolution_s,
        np.column_stack([x, y]).astype(float) * layout.coord_resolution_m,
        layout.object_id,
    )


def hand_blob(rows: list[tuple[int, int, int]]) -> bytes:
    """A blob of arbitrary integer deltas (wider than floats can carry)."""
    points = bytearray()
    for row in rows:
        for delta in row:
            encode_varint(zigzag(delta), points)
    return raw_blob(bytes(points), len(rows))


def raw_blob(points: bytes, n: int) -> bytes:
    """A checksummed blob around a hand-made point region (resolutions 1)."""
    out = bytearray(b"RTRJ\x02\x01h")
    out += struct.pack("<dd", 1.0, 1.0)
    encode_varint(n, out)
    out += points
    out += struct.pack("<I", crc32(bytes(out)))
    return bytes(out)


#: Bit lengths on both sides of every 7-bit varint boundary, to 63 bits.
BOUNDARY_BITS = sorted({b for k in range(1, 10) for b in (7 * k - 1, 7 * k, 7 * k + 1)
                        if b <= 63})


@st.composite
def boundary_deltas(draw) -> int:
    """A delta whose zigzag varint sits at a 7-bit boundary, either sign."""
    bits = draw(st.sampled_from(BOUNDARY_BITS))
    magnitude = (1 << (bits - 2)) + draw(st.integers(0, (1 << (bits - 2)) - 1)) \
        if bits >= 2 else 1
    return magnitude if draw(st.booleans()) else -magnitude


@st.composite
def exact_float_trips(draw) -> Trajectory:
    """Trajectories whose integer coordinates floats carry exactly, with
    deltas at every 7-bit boundary up to 63-bit varints (res = 1)."""
    n = draw(st.integers(1, 10))
    coords = []
    for _ in range(2 * n):
        bits = draw(st.sampled_from([b for b in BOUNDARY_BITS if b <= 60]))
        mantissa = draw(st.integers(1 << 20, (1 << 21) - 1))
        value = mantissa << max(bits - 21, 0) if bits > 21 else draw(
            st.integers(0, (1 << bits) - 1))
        coords.append(value if draw(st.booleans()) else -value)
    t = np.cumsum([draw(st.integers(1, 1 << 40)) for _ in range(n)]).astype(float)
    return Trajectory(t, np.asarray(coords, dtype=float).reshape(n, 2), "exact")


class TestVectorisedDecoder:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(boundary_deltas(), boundary_deltas(), boundary_deltas()),
                    min_size=1, max_size=12))
    def test_boundary_varints_match_the_scalar_loop(self, rows):
        blob = hand_blob(rows)
        try:
            expected = scalar_points(blob)
        except CodecError as exc:
            with pytest.raises(CodecError, match=str(exc)):
                decode_trajectory(blob)
            return
        layout = blob_layout(blob)
        region = memoryview(blob)[layout.points_offset : layout.payload_end]
        got, errors = decode_chains(region, (0, len(region)), (len(rows),))
        assert errors == [None]
        np.testing.assert_array_equal(got, np.column_stack(expected[:3]))

    @settings(max_examples=150, deadline=None)
    @given(exact_float_trips())
    def test_round_trip_at_varint_boundaries(self, traj):
        blob = encode_trajectory(traj, time_resolution_s=1.0, coord_resolution_m=1.0)
        back = decode_trajectory(blob)
        oracle = scalar_decode(blob)
        np.testing.assert_array_equal(back.t, oracle.t)
        np.testing.assert_array_equal(back.xy, oracle.xy)
        np.testing.assert_array_equal(back.t, traj.t)
        np.testing.assert_array_equal(back.xy, traj.xy)

    @settings(max_examples=60, deadline=None)
    @given(trajectories(min_points=1, max_points=60, coord_range=1e6))
    def test_round_trip_is_bit_identical_to_the_scalar_loop(self, traj):
        blob = encode_trajectory(traj)
        back = decode_trajectory(blob)
        oracle = scalar_decode(blob)
        assert back.t.tobytes() == oracle.t.tobytes()
        assert back.xy.tobytes() == oracle.xy.tobytes()

    @pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (-1e6, -3.5, 7.25), (5e8, 1e7, -1e7)])
    def test_one_point_blobs(self, point):
        traj = Trajectory.from_points([point], object_id="one")
        blob = encode_trajectory(traj)
        back = decode_trajectory(blob)
        assert len(back) == 1
        assert back.t.tobytes() == scalar_decode(blob).t.tobytes()
        parts = partition_arrays(blob, 1)
        assert parts.counts.tolist() == [1] and parts.prev.tolist() == [[0, 0, 0]]

    @settings(max_examples=60, deadline=None)
    @given(trajectories(min_points=1, max_points=50, coord_range=5e4), st.integers(1, 55))
    def test_every_partition_stride_matches_a_full_decode(self, traj, stride):
        blob = encode_trajectory(traj)
        full = decode_trajectory(blob)
        t_q, x_q, y_q, end = scalar_points(blob)
        parts = partition_arrays(blob, stride)
        assert parts.counts.sum() == len(full)
        for k, (offset, count, prev) in enumerate(zip(
            parts.offsets.tolist(), parts.counts.tolist(), map(tuple, parts.prev.tolist())
        )):
            first = k * stride
            lo = first - (1 if k else 0)
            hi = first + count
            t, xy, stop = decode_partition(blob, parts.layout, offset, count,
                                           prev if k else None)
            assert t.tobytes() == full.t[lo:hi].tobytes()
            assert xy.tobytes() == full.xy[lo:hi].tobytes()
            assert prev == ((0, 0, 0) if k == 0 else (t_q[lo], x_q[lo], y_q[lo]))
            assert parts.lo[k].tolist() == [t_q[lo], x_q[lo:hi].min(), y_q[lo:hi].min()]
            assert parts.hi[k].tolist() == [t_q[hi - 1], x_q[lo:hi].max(), y_q[lo:hi].max()]
            assert stop == (parts.offsets[k + 1] if k + 1 < len(parts.offsets) else end)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_damaged_point_regions_fail_like_the_scalar_loop(self, data):
        """Corrupt the point region but keep the CRC valid, so every
        check past the checksum is reached: both decoders must agree on
        the outcome."""
        traj = Trajectory.from_points(
            [(float(i * 7), float(i * 37 % 211), -float(i * 53 % 173)) for i in range(12)],
            object_id="fuzz",
        )
        layout = blob_layout(encode_trajectory(traj))
        payload = bytearray(encode_trajectory(traj)[: layout.payload_end])
        position = data.draw(st.integers(layout.points_offset, len(payload) - 1))
        payload[position] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            del payload[data.draw(st.integers(layout.points_offset, len(payload) - 1)):]
        blob = bytes(payload) + struct.pack("<I", crc32(bytes(payload)))
        try:
            expected = scalar_decode(blob)
        except ReproError as exc:
            with pytest.raises(type(exc)):
                decode_trajectory(blob)
            return
        back = decode_trajectory(blob)
        assert back.t.tobytes() == expected.t.tobytes()
        assert back.xy.tobytes() == expected.xy.tobytes()

    def test_varints_wider_than_64_bits_are_codec_errors(self):
        with pytest.raises(CodecError, match="too long"):
            decode_varint(b"\xff" * 9 + b"\x02", 0)
        with pytest.raises(CodecError, match="too long"):
            decode_varint(b"\x80" * 10 + b"\x01", 0)
        assert decode_varint(b"\xff" * 9 + b"\x01", 0) == (2**64 - 1, 10)
        for wide in (b"\xff" * 9 + b"\x02", b"\x80" * 10 + b"\x01"):
            with pytest.raises(CodecError, match="too long"):
                decode_trajectory(raw_blob(wide + b"\x00\x00", 1))
        ok = decode_trajectory(raw_blob(b"\xfe" + b"\xff" * 8 + b"\x01\x00\x00", 1))
        assert ok.t[0] == float(2**63 - 1)

    def test_regions_decode_independently(self):
        """A cut-off varint at the end of one region must not swallow
        the start of the next."""
        good = hand_blob([(5, -3, 2), (7, 1, -1)])
        layout = blob_layout(good)
        region = bytes(memoryview(good)[layout.points_offset : layout.payload_end])
        broken = region[:-1] + b"\x80"
        buf = region + broken + region
        bounds = np.cumsum([0, len(region), len(broken), len(region)])
        rows, errors = decode_chains(buf, bounds, (2, 2, 2))
        assert errors == [None, "truncated varint", None]
        np.testing.assert_array_equal(rows[:2], rows[4:])
