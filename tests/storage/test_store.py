"""Tests for the compressing TrajectoryStore."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OPWTR, TDTR
from repro.exceptions import ObjectNotFoundError, StorageError
from repro.geometry import BBox
from repro.storage import TrajectoryStore
from repro.trajectory import Trajectory


@pytest.fixture
def store(small_dataset) -> TrajectoryStore:
    store = TrajectoryStore(compressor=OPWTR(epsilon=30.0))
    for traj in small_dataset:
        store.insert(traj)
    return store


class TestIngest:
    def test_insert_compresses(self, store, small_dataset):
        for traj in small_dataset:
            record = store.record(traj.object_id)
            assert record.n_stored_points <= record.n_raw_points
            assert record.n_raw_points == len(traj)

    def test_requires_object_id(self):
        anonymous = Trajectory.from_points([(0, 0, 0), (1, 1, 1)])
        with pytest.raises(StorageError, match="no object id"):
            TrajectoryStore().insert(anonymous)
        TrajectoryStore().insert(anonymous, object_id="named")  # ok

    def test_duplicate_id_rejected_without_replace(self, store, small_dataset):
        with pytest.raises(StorageError, match="already stored"):
            store.insert(small_dataset[0])
        store.insert(small_dataset[0], replace=True)  # ok

    def test_insert_without_compressor_stores_raw(self, small_dataset):
        store = TrajectoryStore(compressor=None)
        record = store.insert(small_dataset[0])
        assert record.n_stored_points == record.n_raw_points

    def test_per_insert_compressor_override(self, small_dataset):
        store = TrajectoryStore(compressor=None)
        record = store.insert(small_dataset[0], compressor=TDTR(epsilon=50.0))
        assert record.n_stored_points < record.n_raw_points

    def test_remove(self, store, small_dataset):
        victim = small_dataset[0].object_id
        store.remove(victim)
        assert victim not in store
        with pytest.raises(ObjectNotFoundError):
            store.remove(victim)


class TestRetrieval:
    def test_get_is_decoded_compression(self, store, small_dataset):
        traj = small_dataset[0]
        stored = store.get(traj.object_id)
        assert len(stored) == store.record(traj.object_id).n_stored_points
        assert stored.start_time == pytest.approx(traj.start_time, abs=1e-3)
        assert stored.end_time == pytest.approx(traj.end_time, abs=1e-3)

    def test_get_unknown_raises(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.get("ghost")

    def test_cache_returns_same_object(self, store, small_dataset):
        key = small_dataset[0].object_id
        assert store.get(key) is store.get(key)

    def test_position_at_close_to_original(self, store, small_dataset):
        """The reconstruction error respects the compression threshold
        (plus codec quantum)."""
        traj = small_dataset[0]
        for when in np.linspace(traj.start_time, traj.end_time, 17):
            original = traj.position_at(float(when))
            restored = store.position_at(traj.object_id, float(when))
            assert float(np.hypot(*(original - restored))) <= 30.0 + 0.1

    def test_object_ids_sorted(self, store, small_dataset):
        assert store.object_ids() == sorted(t.object_id for t in small_dataset)

    def test_len_and_contains(self, store, small_dataset):
        assert len(store) == len(small_dataset)
        assert small_dataset[1].object_id in store


class TestQueries:
    def test_time_window(self, small_dataset):
        store = TrajectoryStore()
        assert store.query_time_window(0.0, 1.0) == []  # the empty store
        a = small_dataset[0].with_object_id("early")
        b = small_dataset[1].shifted(dt=1e6).with_object_id("late")
        store.insert(a)
        store.insert(b)
        assert store.query_time_window(a.start_time, a.end_time) == ["early"]
        assert store.query_time_window(b.start_time, b.end_time) == ["late"]
        assert store.query_time_window(a.start_time, b.end_time) == ["early", "late"]
        # A one-fix object's interval is a point.
        when = a.start_time - 1000.0
        store.insert(Trajectory.from_points([(when, 1.0, 2.0)]), object_id="point")
        assert store.query_time_window(when, when) == ["point"]
        assert store.query_time_window(when, when + 4.0) == ["point"]
        assert store.query_time_window(when + 0.1, when + 4.0) == []

    def test_time_window_rejects_reversed(self, store):
        for target in (store, TrajectoryStore()):
            with pytest.raises(ValueError):
                target.query_time_window(10.0, 0.0)

    def test_bbox_query_finds_passing_trajectory(self, store, small_dataset):
        traj = small_dataset[0]
        mid = traj.xy[len(traj) // 2]
        box = BBox(mid[0] - 100, mid[1] - 100, mid[0] + 100, mid[1] + 100)
        assert traj.object_id in store.query_bbox(box)

    def test_bbox_query_excludes_far_region(self, store):
        assert store.query_bbox(BBox(1e7, 1e7, 1e7 + 10, 1e7 + 10)) == []

    def test_bbox_with_time_window(self, small_dataset):
        store = TrajectoryStore()
        traj = small_dataset[0].with_object_id("timed")
        store.insert(traj)
        mid = traj.xy[len(traj) // 2]
        box = BBox(mid[0] - 100, mid[1] - 100, mid[0] + 100, mid[1] + 100)
        # Query a window long before the trajectory: no match.
        assert store.query_bbox(box, traj.start_time - 1e6, traj.start_time - 1e5) == []
        assert store.query_bbox(box, traj.start_time, traj.end_time) == ["timed"]

    def test_bbox_time_args_validation(self, store):
        with pytest.raises(ValueError, match="both"):
            store.query_bbox(BBox(0, 0, 1, 1), t0=0.0)

    def test_bbox_catches_pass_through_without_samples(self):
        """A fast object crossing the box between samples is still found
        (segment clipping, not point membership)."""
        store = TrajectoryStore()
        traj = Trajectory.from_points(
            [(0, -1000, 5), (10, 1000, 5)], )
        store.insert(traj, object_id="crosser")
        assert store.query_bbox(BBox(-10, 0, 10, 10)) == ["crosser"]

    def test_bbox_single_fix_object_at_negative_coordinates(self):
        store = TrajectoryStore()
        store.insert(Trajectory.from_points([(0, -250, -50)]), object_id="p")
        assert store.query_bbox(BBox(-300, -100, -200, 0)) == ["p"]
        assert store.query_bbox(BBox(-200, -100, -100, 0)) == []


class TestAccountingAndPersistence:
    def test_stats(self, store, small_dataset):
        stats = store.stats()
        assert stats.n_objects == len(small_dataset)
        assert stats.n_raw_points == sum(len(t) for t in small_dataset)
        assert 0.0 < stats.point_compression_percent < 100.0
        assert stats.byte_compression_ratio > 2.0

    def test_empty_store_stats(self):
        stats = TrajectoryStore().stats()
        assert stats.n_objects == 0
        assert stats.point_compression_percent == 0.0

    def test_save_load_roundtrip(self, store, tmp_path, small_dataset):
        path = tmp_path / "fleet.store"
        store.save(path)
        loaded = TrajectoryStore.load(path)
        assert loaded.object_ids() == store.object_ids()
        for key in store.object_ids():
            assert loaded.get(key) == store.get(key)
            assert loaded.record(key).n_raw_points == store.record(key).n_raw_points

    def test_loaded_store_answers_queries(self, store, tmp_path, small_dataset):
        path = tmp_path / "fleet.store"
        store.save(path)
        loaded = TrajectoryStore.load(path)
        traj = small_dataset[0]
        mid = traj.xy[len(traj) // 2]
        box = BBox(mid[0] - 100, mid[1] - 100, mid[0] + 100, mid[1] + 100)
        assert traj.object_id in loaded.query_bbox(box)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_bytes(b"not a store at all")
        with pytest.raises(StorageError):
            TrajectoryStore.load(path)

    def test_load_rejects_truncated(self, store, tmp_path):
        path = tmp_path / "fleet.store"
        store.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(StorageError, match="truncated"):
            TrajectoryStore.load(path)
