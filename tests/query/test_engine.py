"""QueryEngine behaviour: exactness, errors, and pruning accounting.

Deterministic cases for the three verbs; the randomized equivalence
sweep lives in ``test_differential.py``. Stores use tiny partitions
(``summary_partition_points=4``) so every query crosses partition
boundaries — the interesting regime for pruning bugs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ObjectNotFoundError
from repro.geometry.bbox import BBox
from repro.obs import Registry
from repro.query.baseline import brute_nearest, brute_window
from repro.query.engine import QueryEngine
from repro.storage.store import TrajectoryStore
from repro.trajectory import Trajectory


def _line(object_id: str, t0: float, n: int, x0: float, y0: float,
          vx: float = 10.0, vy: float = 4.0, dt: float = 10.0) -> Trajectory:
    t = t0 + dt * np.arange(n, dtype=float)
    xy = np.column_stack([x0 + vx * (t - t0), y0 + vy * (t - t0)])
    return Trajectory(t, xy, object_id)


@pytest.fixture
def store(zigzag) -> TrajectoryStore:
    store = TrajectoryStore(summary_partition_points=4)
    store.insert(zigzag)
    store.insert(_line("east", 0.0, 13, 1000.0, 0.0, vx=12.0, vy=0.0))
    store.insert(_line("north", 50.0, 9, -500.0, -500.0, vx=0.0, vy=8.0))
    return store


@pytest.fixture
def engine(store) -> QueryEngine:
    return QueryEngine(store)


class TestPosition:
    def test_matches_full_decode_at_samples_and_midpoints(self, store, engine):
        for key in store.object_ids():
            decoded = store.get(key)
            queries = list(decoded.t) + [
                (a + b) / 2 for a, b in zip(decoded.t, decoded.t[1:])
            ]
            for when in queries:
                answer = engine.position_at(key, when)
                expected = decoded.position_at(when)
                # Bit-identical, not approximately equal: the engine runs
                # the same interpolation on the same decoded floats.
                assert (answer.x, answer.y) == (
                    float(expected[0]), float(expected[1])
                )
                assert answer.object_id == key and answer.t == when

    def test_endpoints_of_every_partition_are_exact(self, store, engine):
        """Times on partition boundaries are owned by exactly one
        partition; the answer must not depend on which box covers them."""
        key = "zigzag"
        decoded = store.get(key)
        stride = store.summary_config.partition_points
        for i in range(0, len(decoded), stride):
            when = float(decoded.t[i])
            expected = decoded.position_at(when)
            answer = engine.position_at(key, when)
            assert (answer.x, answer.y) == (float(expected[0]), float(expected[1]))

    def test_carries_the_record_error_bound(self, store, engine):
        answer = engine.position_at("east", 10.0)
        assert answer.error_bound_m == store.record("east").sync_error_bound_m

    def test_unknown_object_raises_not_found(self, engine):
        with pytest.raises(ObjectNotFoundError):
            engine.position_at("ghost", 0.0)

    def test_time_outside_interval_raises_value_error(self, store, engine):
        decoded = store.get("east")
        for when in (decoded.t[0] - 1.0, decoded.t[-1] + 1.0):
            with pytest.raises(ValueError, match="outside stored interval"):
                engine.position_at("east", when)


class TestWindow:
    def test_no_box_equals_query_time_window(self, store, engine):
        assert engine.window(0.0, 60.0) == store.query_time_window(0.0, 60.0)
        assert engine.window(1e6, 2e6) == []

    def test_with_box_equals_brute_force(self, store, engine):
        box = BBox(400.0, -50.0, 600.0, 300.0)
        for mode in ("stored", "possibly", "definitely"):
            assert engine.window(0.0, 120.0, box, mode) == brute_window(
                store, 0.0, 120.0, box, mode
            )

    def test_window_restricts_the_box_answer(self, store, engine):
        # zigzag is inside this box only from t=40 onwards.
        box = BBox(450.0, -50.0, 520.0, 300.0)
        assert engine.window(0.0, 200.0, box) == ["zigzag"]
        assert engine.window(0.0, 30.0, box) == []

    def test_answers_are_sorted(self, engine):
        out = engine.window(0.0, 1e5, BBox(-1e4, -1e4, 1e4, 1e4))
        assert out == sorted(out)

    def test_empty_window_raises(self, engine):
        with pytest.raises(ValueError, match="empty time window"):
            engine.window(10.0, 5.0)

    def test_unknown_mode_raises(self, engine):
        with pytest.raises(ValueError, match="unknown query mode"):
            engine.window(0.0, 1.0, BBox(0, 0, 1, 1), mode="perhaps")


class TestNearest:
    def test_matches_brute_force_for_every_k(self, store, engine):
        for k in range(1, len(store) + 2):
            answers = engine.nearest(300.0, 50.0, 60.0, k=k)
            expected = brute_nearest(store, 300.0, 50.0, 60.0, k=k)
            assert [(a.object_id, a.distance_m) for a in answers] == expected

    def test_positions_match_the_decoded_interpolation(self, store, engine):
        (answer,) = engine.nearest(480.0, 90.0, 50.0, k=1)
        expected = store.get(answer.object_id).position_at(50.0)
        assert (answer.x, answer.y) == (float(expected[0]), float(expected[1]))

    def test_objects_not_covering_the_time_are_skipped(self, store, engine):
        # Only "east" and "zigzag" exist at t=10 ("north" starts at 50).
        answers = engine.nearest(0.0, 0.0, 10.0, k=5)
        assert sorted(a.object_id for a in answers) == ["east", "zigzag"]

    def test_exact_ties_break_by_object_id(self, zigzag):
        store = TrajectoryStore(summary_partition_points=4)
        store.insert(zigzag, object_id="twin-b")
        store.insert(zigzag, object_id="twin-a")
        engine = QueryEngine(store)
        answers = engine.nearest(1e4, 1e4, 90.0, k=2)
        assert [a.object_id for a in answers] == ["twin-a", "twin-b"]
        assert answers[0].distance_m == answers[1].distance_m

    def test_k_below_one_raises(self, engine):
        with pytest.raises(ValueError, match="k must be >= 1"):
            engine.nearest(0.0, 0.0, 0.0, k=0)


class TestInstrumentation:
    def test_position_query_decodes_a_strict_subset(self, store):
        registry = Registry()
        engine = QueryEngine(store, metrics=registry)
        engine.position_at("zigzag", 5.0)  # first partition only
        total = sum(len(store.record(k).blob) for k in store.object_ids())
        decoded = registry.counter("query_decoded_bytes").value
        assert 0 < decoded < total
        assert registry.counter("queries").value == 1
        assert registry.counter("queries_position").value == 1
        assert registry.counter("query_decoded_records").value == 1
        assert registry.counter("query_decoded_points").value > 0

    def test_prune_ratio_gauge_reflects_skipped_partitions(self, store):
        registry = Registry()
        engine = QueryEngine(store, metrics=registry)
        engine.position_at("zigzag", 5.0)
        ratio = registry.gauge("query_prune_ratio").value
        # zigzag has 19 points in 5 partitions; a time at the very start
        # needs exactly one of them.
        assert 0.0 < ratio < 1.0

    def test_each_verb_bumps_its_own_counter(self, store):
        registry = Registry()
        engine = QueryEngine(store, metrics=registry)
        engine.position_at("east", 10.0)
        engine.window(0.0, 100.0, BBox(-1e4, -1e4, 1e4, 1e4))
        engine.nearest(0.0, 0.0, 60.0, k=1)
        assert registry.counter("queries").value == 3
        for verb in ("position", "window", "nearest"):
            assert registry.counter(f"queries_{verb}").value == 1

    def test_timers_record_per_verb_latency(self, store):
        registry = Registry()
        engine = QueryEngine(store, metrics=registry)
        engine.position_at("east", 10.0)
        snapshot = registry.to_dict()
        assert "query.position.s" in snapshot["timers"]
