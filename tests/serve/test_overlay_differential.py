"""Differential test of the live-session overlay: server == brute merge.

An in-process :class:`TrajectoryServer` (no socket) holds a random
stored set and live sessions — some shadowing stored ids, some new, some
without an acked fix. Its window (three modes, with and without a box)
and nearest answers must equal a brute-force merge: a live id with acked
fixes is answered from :meth:`Session.snapshot` through
:func:`~repro.query.baseline.window_hit` / ``position_at``, every other
stored id through :func:`brute_window` / :func:`brute_nearest`.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.geometry.bbox import BBox
from repro.query.baseline import brute_nearest, brute_window, window_hit
from repro.serve.server import TrajectoryServer
from repro.storage.store import TrajectoryStore, effective_query_box
from repro.trajectory import Trajectory
from repro.types import Fix

SPECS = ["nopw:epsilon=0.001", "opw-tr:epsilon=15", "squish:budget=6"]
MODES = ("stored", "possibly", "definitely")


def _walk(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    t = float(rng.uniform(0.0, 400.0)) + np.cumsum(rng.uniform(1.0, 30.0, n))
    xy = rng.uniform(-300.0, 300.0, 2) + np.cumsum(rng.uniform(-60.0, 60.0, (n, 2)), axis=0)
    return t, xy


def _server(seed: int) -> TrajectoryServer:
    rng = np.random.default_rng(seed)
    store = TrajectoryStore(summary_partition_points=3)
    stored = [f"obj-{i}" for i in range(int(rng.integers(2, 7)))]
    for key in stored:
        store.insert(Trajectory(*_walk(rng, int(rng.integers(1, 14))), key))
    server = TrajectoryServer(store=store)
    live = [key for key in stored if rng.random() < 0.4]
    live += [f"live-{i}" for i in range(int(rng.integers(1, 5)))]
    for key in live:
        server.manager.open(key, SPECS[int(rng.integers(len(SPECS)))])
        if rng.random() < 0.2:
            continue  # opened, no acked fix: any stored record answers
        t, xy = _walk(rng, int(rng.integers(1, 12)))
        server.manager.append_batch(
            key, [Fix(float(a), float(b), float(c)) for a, b, c in zip(t, *xy.T)]
        )
    return server


def _overlays(server: TrajectoryServer) -> dict[str, Trajectory]:
    out = {}
    for key in server.manager.live_session_ids:
        snapshot = server.manager.peek(key).snapshot()
        if snapshot is not None:
            out[key] = snapshot
    return out


def _brute_window(server, t0, t1, box, mode) -> list[str]:
    overlays = _overlays(server)
    hits = {key for key in brute_window(server.store, t0, t1, box, mode)
            if key not in overlays}
    for key, snapshot in overlays.items():
        if box is None:
            hit = snapshot.t[0] <= t1 and snapshot.t[-1] >= t0
        else:
            bound = server.manager.peek(key).compressor.sync_error_bound()
            effective = effective_query_box(
                box, SimpleNamespace(sync_error_bound_m=bound), mode
            )
            hit = effective is not None and window_hit(snapshot, t0, t1, effective)
        if hit:
            hits.add(key)
    return sorted(hits)


def _brute_nearest(server, x, y, when, k) -> list[tuple[str, float]]:
    overlays = _overlays(server)
    ranked = [(distance, key) for key, distance in brute_nearest(
        server.store, x, y, when, k=len(server.store)
    ) if key not in overlays]
    for key, snapshot in overlays.items():
        if snapshot.covers_time(when):
            position = snapshot.position_at(when)
            ranked.append((float(np.hypot(*(position - np.array([x, y])))), key))
    ranked.sort()
    return [(key, distance) for distance, key in ranked[:k]]


def _samples(server: TrajectoryServer) -> tuple[list[float], np.ndarray]:
    """Every stored and live sample time and position."""
    trajs = [server.store.get(key) for key in server.store.object_ids()]
    trajs += list(_overlays(server).values())
    times = sorted({float(v) for traj in trajs for v in traj.t})
    return times, np.vstack([traj.xy for traj in trajs])


@pytest.mark.parametrize("seed", range(12))
def test_window_equals_the_brute_merge(seed):
    server = _server(seed)
    rng = np.random.default_rng(1000 + seed)
    times, points = _samples(server)
    for _ in range(12):
        t0, t1 = sorted(float(v) for v in rng.choice(times, 2))
        cx, cy = points[int(rng.integers(len(points)))]
        w, h = rng.choice([0.0, 20.0, 150.0, 2000.0], 2)
        # The sample sits at the box centre, or 5 m inside or outside its
        # left edge: within one error margin, where the modes differ.
        left = cx + rng.choice([-w / 2, -5.0, 5.0])
        box = BBox(left, cy - h / 2, left + w, cy + h / 2)
        for mode in MODES:
            for query_box in (box, None):
                message = {"op": "query", "query": "window",
                           "t0": t0, "t1": t1, "mode": mode}
                if query_box is not None:
                    message["bbox"] = [query_box.min_x, query_box.min_y,
                                       query_box.max_x, query_box.max_y]
                answer = server._op_query(message)["objects"]
                assert answer == _brute_window(server, t0, t1, query_box, mode)


@pytest.mark.parametrize("seed", range(12))
def test_nearest_equals_the_brute_merge(seed):
    server = _server(seed)
    rng = np.random.default_rng(2000 + seed)
    times, points = _samples(server)
    n_objects = len(set(server.store.object_ids()) | set(_overlays(server)))
    for _ in range(12):
        when = float(rng.choice(times))
        x, y = (float(v) for v in points[int(rng.integers(len(points)))])
        k = int(rng.integers(1, n_objects + 2))
        results = server._op_query({"op": "query", "query": "nearest",
                                    "x": x, "y": y, "t": when, "k": k})["results"]
        answer = [(entry["object"], entry["distance_m"]) for entry in results]
        assert answer == _brute_nearest(server, x, y, when, k)


def test_nearest_asks_the_engine_for_k_plus_the_shadowed_ids(monkeypatch):
    """Only a live id that is also stored can displace a stored answer,
    so live sessions of new ids cost the engine no extra candidates."""
    rng = np.random.default_rng(0)
    store = TrajectoryStore()
    for i in range(4):
        store.insert(Trajectory(*_walk(rng, 5), f"obj-{i}"))
    server = TrajectoryServer(store=store)
    asked: list[int] = []
    nearest = server.engine.nearest

    def spy(x, y, when, k=1):
        asked.append(k)
        return nearest(x, y, when, k=k)

    monkeypatch.setattr(server.engine, "nearest", spy)
    for key in ("new-a", "new-b", "obj-1"):
        server.manager.open(key, SPECS[0])
        server.manager.append_batch(key, [Fix(10.0, 0.0, 0.0), Fix(20.0, 5.0, 5.0)])
        server._op_query({"op": "query", "query": "nearest",
                          "x": 0.0, "y": 0.0, "t": 15.0, "k": 2})
    assert asked == [2, 2, 3]
