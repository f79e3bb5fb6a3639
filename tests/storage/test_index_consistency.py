"""Catalog consistency across every mutation path.

The query engine looks candidate ids up in the records *unguarded* — a
catalog entry pointing at a removed or replaced record would be a
KeyError in the read path. These are the regression tests for that
invariant: after any sequence of insert / append / adopt_record /
remove, the catalog's spatial and time lookups contain exactly the
cataloged ids, and a query over an object's *former* location neither
crashes nor resurrects it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ObjectNotFoundError
from repro.geometry.bbox import BBox
from repro.query.summaries import build_summary
from repro.storage.store import TrajectoryStore
from repro.trajectory import Trajectory

# Covers every trajectory these tests create.
EVERYWHERE = BBox(-5_000.0, -5_000.0, 70_000.0, 70_000.0)


def _store() -> TrajectoryStore:
    """``cell_size_m`` is still accepted, with no effect."""
    return TrajectoryStore(cell_size_m=10_000.0)


def _traj(object_id: str, t0: float, origin: float) -> Trajectory:
    t = t0 + 10.0 * np.arange(6, dtype=float)
    xy = np.column_stack([origin + (t - t0) * 3.0, origin + (t - t0) * 2.0])
    return Trajectory(t, xy, object_id)


def _assert_consistent(store: TrajectoryStore) -> None:
    cataloged = set(store.object_ids())
    assert set(store.candidates(-1e12, 1e12, EVERYWHERE)) == cataloged
    assert set(store.query_time_window(-1e12, 1e12)) == cataloged
    # The read path the invariant protects: no KeyError, ever.
    assert set(store.query_bbox(EVERYWHERE)) <= cataloged


class TestMutationPaths:
    def test_remove_leaves_no_stale_entries(self):
        store = _store()
        store.insert(_traj("a", 0.0, 0.0))
        store.insert(_traj("b", 0.0, 5000.0))
        store.remove("a")
        _assert_consistent(store)
        # Querying a's former neighbourhood must not crash or return it.
        assert store.query_bbox(BBox(-100.0, -100.0, 200.0, 200.0)) == []

    def test_replace_relocates_the_index_entry(self):
        store = _store()
        store.insert(_traj("mover", 0.0, 0.0))
        store.insert(_traj("mover", 0.0, 50_000.0), replace=True)
        _assert_consistent(store)
        old_home = BBox(-100.0, -100.0, 300.0, 300.0)
        new_home = BBox(49_900.0, 49_900.0, 50_300.0, 50_300.0)
        assert store.query_bbox(old_home) == []
        assert store.query_bbox(new_home) == ["mover"]

    def test_adopt_record_replace_relocates_the_index_entry(self):
        donor = _store()
        donor.insert(_traj("mover", 0.0, 50_000.0))
        store = _store()
        store.insert(_traj("mover", 0.0, 0.0))
        store.adopt_record(donor.record("mover"), replace=True)
        _assert_consistent(store)
        assert store.query_bbox(BBox(-100.0, -100.0, 300.0, 300.0)) == []
        assert store.query_bbox(
            BBox(49_900.0, 49_900.0, 50_300.0, 50_300.0)
        ) == ["mover"]
        # The summary was rebuilt from the adopted blob, not kept stale.
        assert store.summary("mover").bbox.min_x >= 49_000.0

    def test_append_extends_both_indexes(self):
        store = _store()
        store.insert(_traj("grow", 0.0, 0.0))
        store.append("grow", _traj("grow", 1000.0, 20_000.0))
        _assert_consistent(store)
        assert store.query_bbox(
            BBox(19_900.0, 19_900.0, 20_300.0, 20_300.0)
        ) == ["grow"]
        assert store.query_time_window(1000.0, 1001.0) == ["grow"]

    def test_merge_from_with_replace(self):
        store = _store()
        store.insert(_traj("shared", 0.0, 0.0))
        store.insert(_traj("mine", 0.0, 1000.0))
        other = _store()
        other.insert(_traj("shared", 0.0, 60_000.0))
        other.insert(_traj("theirs", 0.0, 2000.0))
        store.merge_from(other, replace=True)
        _assert_consistent(store)
        assert store.query_bbox(BBox(-100.0, -100.0, 300.0, 300.0)) == []

    def test_remove_unknown_id_raises_and_changes_nothing(self):
        store = _store()
        store.insert(_traj("only", 0.0, 0.0))
        with pytest.raises(ObjectNotFoundError):
            store.remove("ghost")
        _assert_consistent(store)

    def test_query_after_full_churn_is_clean(self):
        store = _store()
        for i in range(5):
            store.insert(_traj(f"o{i}", 0.0, i * 10_000.0))
        for i in range(5):
            store.remove(f"o{i}")
        _assert_consistent(store)
        assert store.query_bbox(EVERYWHERE) == []
        assert len(store) == 0


class TestRandomizedChurn:
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(
        st.tuples(
            st.sampled_from(["insert", "replace", "remove", "adopt"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(0, 8),
        ),
        min_size=1,
        max_size=12,
    ))
    def test_any_mutation_sequence_keeps_indexes_exact(self, steps):
        store = _store()
        for action, key, cell in steps:
            origin = cell * 7_500.0
            if action == "insert":
                if key not in store:
                    store.insert(_traj(key, 0.0, origin))
            elif action == "replace":
                store.insert(_traj(key, 0.0, origin), replace=True)
            elif action == "adopt":
                donor = _store()
                donor.insert(_traj(key, 0.0, origin))
                store.adopt_record(donor.record(key), replace=True)
            elif key in store:
                store.remove(key)
            _assert_consistent(store)


def _walk(rng: np.random.Generator, object_id: str, start: float, n: int) -> Trajectory:
    """A random walk of ``n`` fixes after time ``start``, in a 5 km square."""
    t = start + np.cumsum(rng.uniform(5.0, 15.0, n))
    xy = rng.uniform(0.0, 5_000.0, 2) + np.cumsum(rng.normal(0.0, 50.0, (n, 2)), axis=0)
    return Trajectory(t, xy, object_id)


def _assert_matches_a_fresh_store(store: TrajectoryStore, rng: np.random.Generator,
                                  tmp_path) -> None:
    """Every summary is its blob's, and queries and the saved file equal
    those of a store built afresh from the same blobs."""
    fresh = TrajectoryStore(summary_partition_points=store.summary_config.partition_points)
    for key in store.object_ids():
        fresh.adopt_record(store.record(key))
    for key in store.object_ids():
        assert store.record(key) == fresh.record(key)
        assert store.summary(key) == build_summary(
            key, store.record(key).blob, store.summary_config
        )
    keys = store.object_ids()
    for _ in range(20):
        # Anchored on a stored record, so that most queries answer.
        anchor = store.record(keys[int(rng.integers(len(keys)))])
        t0 = float(rng.uniform(anchor.start_time, anchor.end_time))
        t1 = t0 + float(rng.uniform(0.0, 300.0))
        x, y = anchor.bbox.center
        box = BBox(x - 400.0, y - 400.0, x + 400.0, y + 400.0)
        assert store.candidates(t0, t1, box) == fresh.candidates(t0, t1, box)
        for mode in ("stored", "possibly", "definitely"):
            assert store.query_bbox(box, t0, t1, mode) == fresh.query_bbox(box, t0, t1, mode)
        assert store.nearest(x, y, t0, k=3) == fresh.nearest(x, y, t0, k=3)
    store.save(tmp_path / "churned.rsto", durable=False)
    fresh.save(tmp_path / "fresh.rsto", durable=False)
    assert (tmp_path / "churned.rsto").read_bytes() == (tmp_path / "fresh.rsto").read_bytes()


class TestPartitionCompaction:
    def test_churn_past_the_compaction_threshold_keeps_every_summary(self, tmp_path):
        """Replaced and removed records leave their summary partition
        rows behind until those outnumber the live ones (and 1,024); the
        store then compacts its partition columns and moves every
        record's pointer into them. Churn a store through several
        compactions and, after each, check it against a fresh store."""
        rng = np.random.default_rng(7)
        store = TrajectoryStore(summary_partition_points=4)
        keys = [f"k{i:02d}" for i in range(40)]
        compactions, dead = 0, 0
        for _ in range(1_500):
            key = keys[int(rng.integers(len(keys)))]
            roll = rng.random()
            if key in store and roll < 0.15:
                store.remove(key)
            elif key in store and roll < 0.3:
                store.append(key, _walk(rng, key, store.record(key).end_time,
                                        int(rng.integers(1, 6))))
            else:
                store.insert(_walk(rng, key, float(rng.uniform(0.0, 4_000.0)),
                                   int(rng.integers(2, 20))), replace=True)
            # Garbage rows only accumulate, until a compaction drops them.
            if store._dead_parts < dead:
                compactions += 1
                _assert_matches_a_fresh_store(store, rng, tmp_path)
            dead = store._dead_parts
        assert compactions >= 2
        _assert_matches_a_fresh_store(store, rng, tmp_path)
