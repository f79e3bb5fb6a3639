"""Partition summaries: conservativeness, footer round-trip, corruption.

The summaries are the pruning oracle of the query engine — a partition
whose quantized bounds miss the query must be provably unable to contain
an answer. These tests pin the two properties that make that sound
(outward quantization, bridge-point coverage) and the footer codec that
persists them bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CodecError, ReproError
from repro.storage.codec import decode_trajectory, encode_trajectory
from repro.query.summaries import (
    FOOTER_MAGIC,
    ObjectSummary,
    SummaryConfig,
    build_summary,
    encode_footer,
    parse_footer,
)
from repro.trajectory import Trajectory

from tests.conftest import trajectories


def _blob(traj: Trajectory) -> bytes:
    return encode_trajectory(traj)


def _sample_blob() -> bytes:
    """A deterministic multi-partition blob for hypothesis tests (which
    cannot take function-scoped fixtures)."""
    points = [
        (float(i * 10), float(i * 37 % 211), float(i * 53 % 173))
        for i in range(19)
    ]
    return _blob(Trajectory.from_points(points, object_id="z"))


@pytest.fixture
def config() -> SummaryConfig:
    return SummaryConfig(partition_points=4, grid_m=10.0, time_grid_s=1.0)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = SummaryConfig()
        assert config.partition_points == 64
        assert config.grid_m > 0 and config.time_grid_s > 0

    @pytest.mark.parametrize("points", [0, -1])
    def test_rejects_nonpositive_partition_points(self, points):
        with pytest.raises(ValueError, match="partition_points"):
            SummaryConfig(partition_points=points)

    @pytest.mark.parametrize(
        "kwargs", [{"grid_m": 0.0}, {"grid_m": -5.0}, {"time_grid_s": 0.0}]
    )
    def test_rejects_nonpositive_grids(self, kwargs):
        with pytest.raises(ValueError, match="grids must be positive"):
            SummaryConfig(**kwargs)


class TestBuildSummary:
    def test_partitions_cover_every_stored_point(self, zigzag, config):
        summary = build_summary("z", _blob(zigzag), config)
        assert summary.n_points == len(zigzag)
        assert sum(p.n_points for p in summary.partitions) == len(zigzag)
        expected_parts = -(-len(zigzag) // config.partition_points)
        assert len(summary.partitions) == expected_parts
        assert summary.partitions[0].prev is None
        assert all(p.prev is not None for p in summary.partitions[1:])

    def test_bounds_are_conservative_for_decoded_geometry(self, zigzag, config):
        blob = _blob(zigzag)
        decoded = decode_trajectory(blob)
        summary = build_summary("z", blob, config)
        assert summary.t_lo <= decoded.t[0]
        assert summary.t_hi >= decoded.t[-1]
        box = decoded.bbox()
        assert summary.bbox.min_x <= box.min_x
        assert summary.bbox.min_y <= box.min_y
        assert summary.bbox.max_x >= box.max_x
        assert summary.bbox.max_y >= box.max_y

    def test_each_partition_bounds_its_rows_and_bridge(self, zigzag, config):
        """Partition k covers its own rows plus the bridging point, so
        every inter-partition segment is bounded by exactly one box."""
        blob = _blob(zigzag)
        decoded = decode_trajectory(blob)
        summary = build_summary("z", blob, config)
        start = 0
        for index, part in enumerate(summary.partitions):
            lo = start - 1 if index else 0
            hi = start + part.n_points
            t = decoded.t[lo:hi]
            xy = decoded.xy[lo:hi]
            assert part.t_lo <= t[0] and part.t_hi >= t[-1]
            assert part.bbox.min_x <= xy[:, 0].min()
            assert part.bbox.max_x >= xy[:, 0].max()
            assert part.bbox.min_y <= xy[:, 1].min()
            assert part.bbox.max_y >= xy[:, 1].max()
            start = hi

    def test_bounds_lie_on_the_grid(self, zigzag, config):
        summary = build_summary("z", _blob(zigzag), config)
        for part in summary.partitions:
            for value in (part.t_lo, part.t_hi):
                assert value == round(value / config.time_grid_s) * config.time_grid_s
            for value in (
                part.bbox.min_x, part.bbox.min_y,
                part.bbox.max_x, part.bbox.max_y,
            ):
                assert value == round(value / config.grid_m) * config.grid_m

    @settings(max_examples=60, deadline=None)
    @given(traj=trajectories(min_points=1, max_points=30), data=st.data())
    def test_conservative_for_arbitrary_trajectories(self, traj, data):
        stride = data.draw(st.sampled_from([1, 2, 3, 7, 64]))
        config = SummaryConfig(stride, grid_m=5.0, time_grid_s=0.5)
        blob = _blob(traj.with_object_id("h"))
        decoded = decode_trajectory(blob)
        summary = build_summary("h", blob, config)
        assert summary.t_lo <= decoded.t[0] and summary.t_hi >= decoded.t[-1]
        box = decoded.bbox()
        assert summary.bbox.min_x <= box.min_x and summary.bbox.max_x >= box.max_x
        assert summary.bbox.min_y <= box.min_y and summary.bbox.max_y >= box.max_y
        assert sum(p.n_points for p in summary.partitions) == len(decoded)


class TestWireForm:
    def test_to_wire_carries_bounds_not_checkpoints(self, zigzag, config):
        summary = build_summary("z", _blob(zigzag), config)
        wire = summary.to_wire()
        assert wire["object"] == "z"
        assert wire["n_points"] == len(zigzag)
        assert len(wire["partitions"]) == len(summary.partitions)
        for part, entry in zip(summary.partitions, wire["partitions"]):
            assert entry == {
                "t0": part.t_lo,
                "t1": part.t_hi,
                "bbox": [
                    part.bbox.min_x, part.bbox.min_y,
                    part.bbox.max_x, part.bbox.max_y,
                ],
                "n": part.n_points,
            }
            # Checkpoint internals stay private to the store.
            assert "offset" not in entry and "prev" not in entry


class TestFooterCodec:
    def _summaries(self, dataset, config) -> dict[str, ObjectSummary]:
        return {
            traj.object_id: build_summary(traj.object_id, _blob(traj), config)
            for traj in dataset
        }

    def test_round_trip_is_bit_identical(self, small_dataset, config):
        summaries = self._summaries(small_dataset, config)
        footer = encode_footer(summaries, config)
        assert footer[:4] == FOOTER_MAGIC
        parsed_config, parsed, end = parse_footer(footer, 0)
        assert end == len(footer)
        assert parsed_config == config
        assert parsed == summaries  # frozen dataclasses: exact equality

    def test_round_trip_survives_a_prefix_offset(self, zigzag, config):
        summaries = {"z": build_summary("z", _blob(zigzag), config)}
        footer = encode_footer(summaries, config)
        data = b"\xde\xad\xbe\xef" + footer
        parsed_config, parsed, end = parse_footer(data, 4)
        assert parsed == summaries and parsed_config == config
        assert end == len(data)

    def test_empty_store_round_trips(self, config):
        footer = encode_footer({}, config)
        parsed_config, parsed, _ = parse_footer(footer, 0)
        assert parsed == {} and parsed_config == config

    def test_bad_magic_is_a_codec_error(self, config):
        footer = bytearray(encode_footer({}, config))
        footer[0] ^= 0xFF
        with pytest.raises(CodecError, match="bad magic"):
            parse_footer(bytes(footer), 0)

    def test_unknown_version_is_a_codec_error(self, config):
        footer = bytearray(encode_footer({}, config))
        footer[4] = 99
        with pytest.raises(CodecError, match="version"):
            parse_footer(bytes(footer), 0)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_single_byte_corruption_fails_loudly(self, data):
        """Any flipped footer byte surfaces as a typed error or parses
        back to the identical summaries (flips in padding-free varint
        space can cancel only by reproducing the original value)."""
        config = SummaryConfig(partition_points=4, grid_m=10.0, time_grid_s=1.0)
        summaries = {"z": build_summary("z", _sample_blob(), config)}
        footer = bytearray(encode_footer(summaries, config))
        position = data.draw(st.integers(0, len(footer) - 1))
        footer[position] ^= data.draw(st.integers(1, 255))
        try:
            _, parsed, _ = parse_footer(bytes(footer), 0)
        except ReproError:
            return
        assert parsed == summaries

    def test_truncation_fails_loudly(self, zigzag, config):
        summaries = {"z": build_summary("z", _blob(zigzag), config)}
        footer = encode_footer(summaries, config)
        for cut in (3, 4, 5, 20, len(footer) - 5, len(footer) - 1):
            with pytest.raises(ReproError):
                parse_footer(footer[:cut], 0)

    def test_grid_multiples_reproduce_floats_exactly(self, zigzag):
        """The footer stores bounds as grid multiples; odd grids must
        still reproduce the in-memory floats bit-for-bit."""
        config = SummaryConfig(3, grid_m=0.3, time_grid_s=0.7)
        summaries = {"z": build_summary("z", _blob(zigzag), config)}
        _, parsed, _ = parse_footer(encode_footer(summaries, config), 0)
        original = summaries["z"]
        restored = parsed["z"]
        for a, b in zip(original.partitions, restored.partitions):
            assert (a.t_lo, a.t_hi) == (b.t_lo, b.t_hi)
            assert a.bbox == b.bbox

    def test_checkpoints_decode_the_exact_partition(self, zigzag, config):
        """The restart state round-tripped through the footer re-enters
        the delta chain at the same rows a fresh scan produces."""
        from repro.storage.codec import blob_layout, decode_partition

        blob = _blob(zigzag)
        summaries = {"z": build_summary("z", blob, config)}
        _, parsed, _ = parse_footer(encode_footer(summaries, config), 0)
        layout = blob_layout(blob)
        decoded = decode_trajectory(blob)
        start = 0
        for index, part in enumerate(parsed["z"].partitions):
            t, xy, _ = decode_partition(
                blob, layout, part.offset, part.n_points, part.prev
            )
            lo = start - 1 if index else 0
            hi = start + part.n_points
            np.testing.assert_array_equal(t, decoded.t[lo:hi])
            np.testing.assert_array_equal(xy, decoded.xy[lo:hi])
            start = hi



class TestFooterDamageIsTyped:
    """A store quarantines a footer that raises a ReproError; any other
    exception would escape ``TrajectoryStore.load``. So every cut and
    every flipped bit must surface as one."""

    @staticmethod
    def _footer(ids: list[str], config: SummaryConfig) -> bytes:
        blob = _sample_blob()
        return encode_footer({key: build_summary(key, blob, config) for key in ids}, config)

    @pytest.mark.parametrize("ids", [[], ["a", "é", "日本"]], ids=["empty", "three"])
    def test_every_truncation(self, ids, config):
        footer = self._footer(ids, config)
        for cut in range(len(footer)):
            with pytest.raises(ReproError):
                parse_footer(footer[:cut], 0)

    @pytest.mark.parametrize("ids", [[], ["a", "é", "日本"]], ids=["empty", "three"])
    def test_every_bit_flip(self, ids, config):
        footer = self._footer(ids, config)
        for position in range(len(footer)):
            for bit in range(8):
                damaged = bytearray(footer)
                damaged[position] ^= 1 << bit
                with pytest.raises(ReproError):
                    parse_footer(bytes(damaged), 0)

    def test_entries_missing_before_the_checksum(self, config):
        """The count promises an entry but the checksum follows at once."""
        footer = bytearray(self._footer([], config))
        footer[-5] = 1
        with pytest.raises(CodecError, match="truncated"):
            parse_footer(bytes(footer), 0)
