"""Differential testing: QueryEngine == decode-everything brute force.

Hypothesis drives randomized stores (tiny partitions, so queries always
span partition boundaries) and adversarial query points — decoded sample
times, partition-boundary times, segment midpoints, duplicate spatial
endpoints — and asserts the pruned engine answers are *identical* to
:mod:`repro.query.baseline`, which decodes everything and never prunes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BBox
from repro.query.baseline import brute_nearest, brute_window
from repro.query.engine import QueryEngine
from repro.storage.store import TrajectoryStore
from repro.trajectory import Trajectory

from tests.conftest import trajectories


def _build_store(data: st.DataObject) -> TrajectoryStore:
    """A store of 1-4 random trajectories with adversarially small
    partitions; one trajectory may be duplicated under a second id so
    exact spatial ties exist."""
    store = TrajectoryStore(
        summary_partition_points=data.draw(
            st.sampled_from([1, 2, 3, 5]), label="partition_points"
        ),
        summary_grid_m=data.draw(
            st.sampled_from([1.0, 10.0, 100.0]), label="grid_m"
        ),
        summary_time_grid_s=data.draw(
            st.sampled_from([0.5, 1.0, 30.0]), label="time_grid_s"
        ),
    )
    n = data.draw(st.integers(1, 4), label="n_objects")
    trajs = [
        data.draw(trajectories(min_points=1, max_points=25), label=f"traj{i}")
        for i in range(n)
    ]
    for i, traj in enumerate(trajs):
        store.insert(traj, object_id=f"obj-{i}")
    if data.draw(st.booleans(), label="duplicate"):
        # Same geometry under another id: forces exact distance ties in
        # nearest and identical boxes in window.
        store.insert(trajs[0], object_id="obj-dup")
    return store


def _adversarial_times(store: TrajectoryStore, data: st.DataObject) -> list[float]:
    """Decoded sample times (includes every partition boundary), segment
    midpoints, the extremes, and one step outside each end."""
    times: list[float] = []
    for key in store.object_ids():
        t = store.get(key).t
        times.extend(float(v) for v in t)
        times.extend(float((a + b) / 2) for a, b in zip(t, t[1:]))
        times.extend((float(t[0]) - 1.0, float(t[-1]) + 1.0))
    picks = data.draw(
        st.lists(st.sampled_from(sorted(set(times))), min_size=1, max_size=6),
        label="times",
    )
    return picks


def _query_box(store: TrajectoryStore, data: st.DataObject) -> BBox:
    """Boxes anchored on decoded sample coordinates: edges and corners
    land exactly on trajectory points, the worst case for ties."""
    xs, ys = [], []
    for key in store.object_ids():
        xy = store.get(key).xy
        xs.extend(float(v) for v in xy[:, 0])
        ys.extend(float(v) for v in xy[:, 1])
    x0 = data.draw(st.sampled_from(sorted(set(xs))), label="box_x")
    y0 = data.draw(st.sampled_from(sorted(set(ys))), label="box_y")
    w = data.draw(st.sampled_from([0.0, 5.0, 150.0, 4000.0]), label="box_w")
    h = data.draw(st.sampled_from([0.0, 5.0, 150.0, 4000.0]), label="box_h")
    return BBox(x0 - w / 2, y0 - h / 2, x0 + w / 2, y0 + h / 2)


class TestEngineEqualsBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_position(self, data):
        store = _build_store(data)
        engine = QueryEngine(store)
        for key in store.object_ids():
            decoded = store.get(key)
            for when in _adversarial_times(store, data):
                covered = decoded.t[0] <= when <= decoded.t[-1]
                if not covered:
                    with pytest.raises(ValueError):
                        engine.position_at(key, when)
                    continue
                answer = engine.position_at(key, when)
                expected = decoded.position_at(when)
                assert (answer.x, answer.y) == (
                    float(expected[0]), float(expected[1])
                )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_window(self, data):
        store = _build_store(data)
        engine = QueryEngine(store)
        times = _adversarial_times(store, data)
        t0 = min(times)
        t1 = max(times)
        box = _query_box(store, data)
        mode = data.draw(
            st.sampled_from(["stored", "possibly", "definitely"]), label="mode"
        )
        assert engine.window(t0, t1, box, mode) == brute_window(
            store, t0, t1, box, mode
        )
        assert engine.window(t0, t1) == brute_window(store, t0, t1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_nearest(self, data):
        store = _build_store(data)
        engine = QueryEngine(store)
        when = data.draw(
            st.sampled_from(_adversarial_times(store, data)), label="when"
        )
        box = _query_box(store, data)  # reuse: targets on decoded points
        x, y = box.center
        k = data.draw(st.integers(1, len(store) + 1), label="k")
        answers = engine.nearest(x, y, when, k=k)
        expected = brute_nearest(store, x, y, when, k=k)
        assert [(a.object_id, a.distance_m) for a in answers] == expected
        for a in answers:
            position = store.get(a.object_id).position_at(when)
            assert (a.x, a.y) == (float(position[0]), float(position[1]))


class TestDuplicateEndpointTies:
    """Deterministic pin of the tie cases hypothesis shrinks toward."""

    def test_two_objects_sharing_every_point(self):
        t = np.array([0.0, 10.0, 20.0])
        xy = np.array([[0.0, 0.0], [50.0, 0.0], [50.0, 40.0]])
        store = TrajectoryStore(summary_partition_points=2)
        store.insert(Trajectory(t, xy, "b"))
        store.insert(Trajectory(t, xy, "a"))
        engine = QueryEngine(store)
        assert [(a.object_id, a.distance_m) for a in engine.nearest(
            0.0, 0.0, 10.0, k=2
        )] == brute_nearest(store, 0.0, 0.0, 10.0, k=2)
        box = BBox(50.0, 0.0, 50.0, 40.0)  # degenerate: an edge
        assert engine.window(0.0, 20.0, box) == brute_window(
            store, 0.0, 20.0, box
        )

    def test_query_exactly_on_a_partition_boundary_point(self):
        t = np.arange(0.0, 60.0, 10.0)
        xy = np.column_stack([t * 3.0, t * -2.0])
        store = TrajectoryStore(summary_partition_points=2)
        store.insert(Trajectory(t, xy, "edge"))
        engine = QueryEngine(store)
        decoded = store.get("edge")
        for when in decoded.t:  # every sample, incl. boundary rows
            answer = engine.position_at("edge", float(when))
            expected = decoded.position_at(float(when))
            assert (answer.x, answer.y) == (
                float(expected[0]), float(expected[1])
            )

    def test_segment_ending_an_ulp_before_the_box(self):
        """A segment ending one ulp short of the box: the summaries prune
        it and the exact predicate must agree (see test_clip.py)."""
        t = np.array([0.0, 10.0])
        xy = np.array([[-1000.0, 5.0], [100.0, 5.0]])
        store = TrajectoryStore()
        store.insert(Trajectory(t, xy, "a"))
        end_x = float(store.get("a").xy[-1, 0])
        box = BBox(math.nextafter(end_x, math.inf), 0.0, 200.0, 10.0)
        engine = QueryEngine(store)
        assert brute_window(store, 0.0, 10.0, box) == []
        for mode in ("stored", "possibly", "definitely"):
            assert engine.window(0.0, 10.0, box, mode) == brute_window(
                store, 0.0, 10.0, box, mode
            )
            assert store.query_bbox(box, mode=mode) == brute_window(
                store, 0.0, 10.0, box, mode
            )
