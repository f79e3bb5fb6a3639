"""Tests for known error margins in the store (paper objective 3).

"to obtain a data series with known, small margins of error" — the store
records each object's guaranteed synchronized bound and answers rectangle
queries under stored / possibly / definitely semantics.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

from repro.core import DouglasPeucker, OPWTR, TDTR
from repro.error import max_synchronized_error
from repro.exceptions import StorageError
from repro.geometry import BBox
from repro.storage import StreamIngestor, TrajectoryStore
from repro.io_util import crc32
from repro.streaming import StreamingOPW
from repro.trajectory import Trajectory

#: Values a caller may mean as a margin that are not one.
NOT_MARGINS = [-5.0, float("nan"), float("inf")]


@pytest.fixture
def corridor() -> Trajectory:
    """Straight east run along y=0, 10 m/s."""
    t = np.arange(0.0, 110.0, 10.0)
    return Trajectory(t, np.column_stack([t * 10.0, np.zeros_like(t)]), "runner")


class TestRecordedBounds:
    def test_guaranteed_compressors_record_bound(self, corridor):
        store = TrajectoryStore(compressor=TDTR(epsilon=25.0))
        record = store.insert(corridor)
        assert record.sync_error_bound_m == pytest.approx(25.0, abs=0.1)

    def test_raw_insert_records_codec_slack_only(self, corridor):
        store = TrajectoryStore(coord_resolution_m=0.01)
        record = store.insert(corridor)
        assert record.sync_error_bound_m == pytest.approx(0.00707, abs=1e-3)

    def test_unguaranteed_compressor_records_none(self, corridor):
        store = TrajectoryStore(compressor=DouglasPeucker(epsilon=25.0))
        record = store.insert(corridor)
        assert record.sync_error_bound_m is None

    def test_explicit_none_override(self, corridor):
        store = TrajectoryStore()
        record = store.insert(corridor, sync_error_bound_m=None)
        assert record.sync_error_bound_m is None

    def test_explicit_numeric_override_gets_codec_slack(self, corridor):
        store = TrajectoryStore(coord_resolution_m=0.01)
        record = store.insert(corridor, sync_error_bound_m=12.0)
        assert record.sync_error_bound_m == pytest.approx(12.007, abs=1e-2)

    def test_bound_is_sound(self, urban_trajectory):
        """The recorded bound really does bound the stored-vs-raw error."""
        store = TrajectoryStore(compressor=OPWTR(epsilon=30.0))
        record = store.insert(urban_trajectory)
        stored = store.get(urban_trajectory.object_id)
        actual = max_synchronized_error(urban_trajectory, stored)
        assert actual <= record.sync_error_bound_m + 1e-6

    def test_ingestor_propagates_bound(self, corridor):
        store = TrajectoryStore()
        ingestor = StreamIngestor(
            store, compressor_factory=lambda: StreamingOPW(20.0, "synchronized")
        )
        for fix in corridor:
            ingestor.push("runner", fix)
        record = ingestor.finish("runner")
        assert record.sync_error_bound_m == pytest.approx(20.0, abs=0.1)

    def test_ingestor_perpendicular_criterion_gives_none(self, corridor):
        store = TrajectoryStore()
        ingestor = StreamIngestor(
            store, compressor_factory=lambda: StreamingOPW(20.0, "perpendicular")
        )
        for fix in corridor:
            ingestor.push("runner", fix)
        assert ingestor.finish("runner").sync_error_bound_m is None

    def test_bound_survives_save_load(self, corridor, tmp_path):
        store = TrajectoryStore(compressor=TDTR(epsilon=25.0))
        store.insert(corridor)
        store.insert(corridor.with_object_id("unbounded"), sync_error_bound_m=None)
        path = tmp_path / "bounds.store"
        store.save(path)
        loaded = TrajectoryStore.load(path)
        assert loaded.record("runner").sync_error_bound_m == pytest.approx(
            store.record("runner").sync_error_bound_m
        )
        assert loaded.record("unbounded").sync_error_bound_m is None


def _with_first_margin(data: bytes, bound: float) -> bytes:
    """A saved store file with its first record's frame margin set to
    ``bound`` and the record checksum recomputed to match."""
    out = bytearray(data)
    offset = 9  # magic, version and record count
    _, _, blob_len = struct.unpack_from("<IdI", out, offset)
    struct.pack_into("<d", out, offset + 4, bound)
    end = offset + 16 + blob_len
    struct.pack_into("<I", out, end, crc32(bytes(out[offset:end])))
    return bytes(out)


class TestMarginsThatAreNot:
    """A negative, NaN or infinite margin is refused where it would
    enter the store; once stored, every ``possibly`` window would fail."""

    @pytest.mark.parametrize("bound", NOT_MARGINS)
    def test_insert_refuses(self, corridor, bound):
        store = TrajectoryStore()
        with pytest.raises(StorageError, match="not a margin"):
            store.insert(corridor, sync_error_bound_m=bound)
        assert len(store) == 0

    @pytest.mark.parametrize("bound", NOT_MARGINS)
    def test_adopt_record_refuses(self, corridor, bound):
        source = TrajectoryStore()
        record = source.insert(corridor)
        target = TrajectoryStore()
        with pytest.raises(StorageError, match="not a margin"):
            target.adopt_record(dataclasses.replace(record, sync_error_bound_m=bound))
        assert len(target) == 0

    @pytest.mark.parametrize("bound", [-5.0, float("inf")])
    def test_load_treats_the_record_as_corrupt(self, corridor, tmp_path, bound):
        store = TrajectoryStore()
        store.insert(corridor, sync_error_bound_m=10.0)
        store.insert(corridor.with_object_id("other"), sync_error_bound_m=10.0)
        path = tmp_path / "margins.store"
        store.save(path)
        path.write_bytes(_with_first_margin(path.read_bytes(), bound))
        with pytest.raises(StorageError, match="margin"):
            TrajectoryStore.load(path)
        skipped = TrajectoryStore.load(path, verify="skip")
        assert len(skipped) == 1
        assert skipped.load_failures[0].startswith("record 0: ")
        box = BBox(-100.0, -100.0, 2_000.0, 100.0)
        assert skipped.query_bbox(box, mode="possibly") == skipped.object_ids()


class TestQueryModes:
    @pytest.fixture
    def store(self, corridor) -> TrajectoryStore:
        store = TrajectoryStore()
        # Stored geometry is the corridor itself, with a declared 50 m
        # margin (as if heavily compressed upstream).
        store.insert(corridor, sync_error_bound_m=50.0)
        return store

    def test_possibly_includes_near_misses(self, store):
        # Box 30 m north of the stored line: stored-mode misses it, but
        # with a 50 m margin the true object may have been there.
        box = BBox(400.0, 20.0, 600.0, 40.0)
        assert store.query_bbox(box, mode="stored") == []
        assert store.query_bbox(box, mode="possibly") == ["runner"]

    def test_definitely_requires_deep_entry(self, store):
        # A box the stored line crosses 10 m inside: not enough margin to
        # certify; a much deeper box is.
        shallow = BBox(400.0, -60.0, 600.0, 10.0)
        deep = BBox(300.0, -110.0, 800.0, 110.0)
        assert store.query_bbox(shallow, mode="stored") == ["runner"]
        assert store.query_bbox(shallow, mode="definitely") == []
        assert store.query_bbox(deep, mode="definitely") == ["runner"]

    def test_definitely_never_certifies_unbounded_objects(self, corridor):
        store = TrajectoryStore()
        store.insert(corridor, sync_error_bound_m=None)
        box = BBox(-1000.0, -1000.0, 10_000.0, 1000.0)
        assert store.query_bbox(box, mode="stored") == ["runner"]
        assert store.query_bbox(box, mode="definitely") == []

    def test_mode_hierarchy(self, store):
        """definitely ⊆ stored ⊆ possibly for any box."""
        boxes = [
            BBox(0.0, -5.0, 1000.0, 5.0),
            BBox(400.0, 20.0, 600.0, 40.0),
            BBox(300.0, -200.0, 800.0, 200.0),
        ]
        for box in boxes:
            definite = set(store.query_bbox(box, mode="definitely"))
            stored = set(store.query_bbox(box, mode="stored"))
            possible = set(store.query_bbox(box, mode="possibly"))
            assert definite <= stored <= possible

    def test_unknown_mode_rejected(self, store):
        with pytest.raises(ValueError, match="mode"):
            store.query_bbox(BBox(0, 0, 1, 1), mode="perhaps")
