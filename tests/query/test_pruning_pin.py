"""Query pruning, pinned exactly: the bytes the engine decodes per verb.

A store of 400 seeded random-walk trips across a 40 km city, inserted
uncompressed so stored bytes are raw geometry bytes, and 40 queries per
verb anchored on stored objects. Every engine answer must equal the
brute-force oracle's (:mod:`repro.query.baseline`). The store size, the
bytes ``QueryEngine`` decodes per verb (its ``query_decoded_bytes``
counter) and its last ``query_prune_ratio`` must equal
``tests/data/golden/query_pruning.json`` exactly. The workload is a
pure function of its seeds, so a lost pruning step shows here as extra
decoded bytes, however few, while every answer stays right.

To bless an intentional change to pruning or to the store layout::

    PYTHONPATH=src python -m pytest tests/query/test_pruning_pin.py --regen-golden

then review the ``query_pruning.json`` diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.geometry.bbox import BBox
from repro.obs import Registry
from repro.query.baseline import brute_nearest, brute_position, brute_window
from repro.query.engine import QueryEngine
from repro.storage.store import TrajectoryStore
from repro.trajectory import Trajectory

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "data" / "golden" / "query_pruning.json"
)

N_OBJECTS = 400
POINTS_PER_OBJECT = 110
N_QUERIES = 40
#: Objects move inside a square this many metres on a side.
CITY_M = 40_000.0
STORE_SEED = 17
QUERY_SEED = 23
VERBS = ("position", "window", "nearest")


def make_store() -> TrajectoryStore:
    rng = np.random.default_rng(STORE_SEED)
    store = TrajectoryStore()
    starts = rng.uniform(0.0, 86_400.0, size=N_OBJECTS)
    origins = rng.uniform(0.05 * CITY_M, 0.95 * CITY_M, size=(N_OBJECTS, 2))
    for i in range(N_OBJECTS):
        n = int(rng.integers(POINTS_PER_OBJECT - 10, POINTS_PER_OBJECT + 10))
        t = starts[i] + np.cumsum(rng.uniform(5.0, 15.0, size=n))
        steps = rng.normal(0.0, 60.0, size=(n, 2))
        xy = np.clip(origins[i] + np.cumsum(steps, axis=0), 0.0, CITY_M)
        store.insert(Trajectory(t, xy, f"obj-{i:05d}"))
    return store


def make_queries(store: TrajectoryStore) -> dict[str, list]:
    """Per verb, ``N_QUERIES`` argument tuples around stored objects."""
    rng = np.random.default_rng(QUERY_SEED)
    keys = store.object_ids()
    queries: dict[str, list] = {verb: [] for verb in VERBS}
    for index in rng.choice(len(keys), size=N_QUERIES, replace=False):
        key = keys[int(index)]
        rec = store.record(key)
        when = float(
            rec.start_time + rng.uniform(0.1, 0.9) * (rec.end_time - rec.start_time)
        )
        queries["position"].append((key, when))
        cx, cy = rec.bbox.center
        half = float(rng.uniform(250.0, 1_500.0))
        queries["window"].append((
            when - float(rng.uniform(60.0, 600.0)),
            when + float(rng.uniform(60.0, 600.0)),
            BBox(cx - half, cy - half, cx + half, cy + half),
        ))
        queries["nearest"].append((cx, cy, when, int(rng.integers(1, 6))))
    return queries


def engine_answer(engine: QueryEngine, verb: str, query: tuple):
    if verb == "position":
        answer = engine.position_at(*query)
        return (answer.x, answer.y)
    if verb == "window":
        return engine.window(*query)
    x, y, when, k = query
    return [(a.object_id, a.distance_m) for a in engine.nearest(x, y, when, k=k)]


def brute_answer(store: TrajectoryStore, verb: str, query: tuple):
    if verb == "position":
        return tuple(float(v) for v in brute_position(store, *query))
    if verb == "window":
        return brute_window(store, *query)
    x, y, when, k = query
    return brute_nearest(store, x, y, when, k=k)


@pytest.fixture(scope="module")
def workload() -> tuple[TrajectoryStore, dict[str, list]]:
    store = make_store()
    return store, make_queries(store)


@pytest.fixture(scope="module")
def measured(workload) -> dict:
    """One engine pass over every query: its answers and counters."""
    store, queries = workload
    registry = Registry()
    engine = QueryEngine(store, metrics=registry)
    decoded = registry.counter("query_decoded_bytes")
    answers: dict[str, list] = {}
    decoded_bytes: dict[str, int] = {}
    for verb in VERBS:
        before = decoded.value
        answers[verb] = [engine_answer(engine, verb, q) for q in queries[verb]]
        decoded_bytes[verb] = decoded.value - before
    return {
        "answers": answers,
        "pin": {
            "stored_bytes": store.stats().stored_bytes,
            "decoded_bytes": decoded_bytes,
            "prune_ratio": registry.gauge("query_prune_ratio").value,
        },
    }


def test_regen_query_pruning(measured, regen_golden):
    """Not a test when run normally; rewrites the golden file under --regen-golden."""
    if not regen_golden:
        pytest.skip("pass --regen-golden to regenerate")
    GOLDEN_PATH.write_text(json.dumps(measured["pin"], indent=2) + "\n")


@pytest.mark.parametrize("verb", VERBS)
def test_answers_equal_brute_force(verb, workload, measured):
    store, queries = workload
    want = [brute_answer(store, verb, q) for q in queries[verb]]
    assert measured["answers"][verb] == want


def test_decoded_bytes_are_pinned(measured, regen_golden):
    if regen_golden:
        pytest.skip("regenerating, not checking")
    assert measured["pin"] == json.loads(GOLDEN_PATH.read_text())
