"""Differential test of the read path's live source: server == brute merge.

An in-process :class:`TrajectoryServer` (no socket) holds a random
stored set and live sessions — some shadowing stored ids, some new, some
without an acked fix. Each live session is fed in several batches, with
queries after every round: a batch may stop at a fix that goes back in
time (only its accepted prefix counts), and budget sessions are
renegotiated down between rounds, so their snapshots shrink while the
extents the engine prunes them by stay. The server's position, window
(three modes, with and without a box) and nearest answers must equal a
brute-force merge: a live id with acked fixes is answered from
:meth:`Session.snapshot` through :func:`~repro.query.baseline.window_hit`
/ ``position_at``, every other stored id through :func:`brute_position`,
:func:`brute_window` and :func:`brute_nearest`.
"""

from __future__ import annotations

from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np
import pytest

import repro.query.engine
from repro.exceptions import ServeError
from repro.geometry.bbox import BBox
from repro.query.baseline import brute_nearest, brute_position, brute_window, window_hit
from repro.serve.server import TrajectoryServer
from repro.storage.store import TrajectoryStore, effective_query_box
from repro.trajectory import Trajectory
from repro.types import Fix

SPECS = ["nopw:epsilon=0.001", "opw-tr:epsilon=15", "squish:budget=6"]
MODES = ("stored", "possibly", "definitely")
#: Append rounds per server; queries run after each.
ROUNDS = 3


def _walk(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    t = float(rng.uniform(0.0, 400.0)) + np.cumsum(rng.uniform(1.0, 30.0, n))
    xy = rng.uniform(-300.0, 300.0, 2) + np.cumsum(rng.uniform(-60.0, 60.0, (n, 2)), axis=0)
    return t, xy


def _batches(rng: np.random.Generator, n: int) -> list[list[Fix]]:
    """A walk of ``n`` fixes cut at random points into ``ROUNDS`` batches
    (some may be empty). Half the time one batch carries a fix that goes
    back in time after its first fix: the session accepts the prefix
    before it and drops the rest of that batch."""
    t, xy = _walk(rng, n)
    fixes = [Fix(float(a), float(b), float(c)) for a, b, c in zip(t, *xy.T)]
    cuts = sorted(int(v) for v in rng.integers(0, n + 1, ROUNDS - 1))
    batches = [fixes[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])]
    filled = [batch for batch in batches if batch]
    if rng.random() < 0.5:
        batch = filled[int(rng.integers(len(filled)))]
        at = int(rng.integers(1, len(batch) + 1))
        batch.insert(at, Fix(batch[at - 1].t - 1.0, 5000.0, 5000.0))
    return batches


def _stages(seed: int) -> Iterator[TrajectoryServer]:
    """One server, yielded after each round of append batches."""
    rng = np.random.default_rng(seed)
    store = TrajectoryStore(summary_partition_points=3)
    stored = [f"obj-{i}" for i in range(int(rng.integers(2, 7)))]
    for key in stored:
        store.insert(Trajectory(*_walk(rng, int(rng.integers(1, 14))), key))
    server = TrajectoryServer(store=store)
    live = [key for key in stored if rng.random() < 0.4]
    live += [f"live-{i}" for i in range(int(rng.integers(1, 5)))]
    feeds: dict[str, list[list[Fix]]] = {}
    for key in live:
        server.manager.open(key, SPECS[int(rng.integers(len(SPECS)))])
        if rng.random() < 0.2:
            continue  # opened, no acked fix: any stored record answers
        feeds[key] = _batches(rng, int(rng.integers(1, 25)))
    for turn in range(ROUNDS):
        for key, batches in feeds.items():
            session = server.manager.sessions[key]
            if turn == ROUNDS - 1 and session.budget is not None:
                # The snapshot shrinks; the extents must not.
                server.manager.renegotiate_session(key, 3)
            server.manager.append_batch(key, batches[turn])
        yield server


def _overlays(server: TrajectoryServer) -> dict[str, Trajectory]:
    out = {}
    for key in server.manager.live_session_ids:
        snapshot = server.manager.sessions[key].snapshot()
        if snapshot is not None:
            out[key] = snapshot
    return out


def _live_bound(server: TrajectoryServer, key: str) -> float | None:
    """A live session's margin: the compressor's bound, no codec slack."""
    return server.manager.sessions[key].compressor.sync_error_bound()


def _brute_window(server, t0, t1, box, mode) -> list[str]:
    overlays = _overlays(server)
    hits = {key for key in brute_window(server.store, t0, t1, box, mode)
            if key not in overlays}
    for key, snapshot in overlays.items():
        if box is None:
            hit = snapshot.t[0] <= t1 and snapshot.t[-1] >= t0
        else:
            effective = effective_query_box(
                box, SimpleNamespace(sync_error_bound_m=_live_bound(server, key)), mode
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


def _brute_position(server, key, when) -> dict | None:
    """The live snapshot's answer if it covers ``when``, else the stored
    record's, else ``None`` (not found)."""
    snapshot = _overlays(server).get(key)
    if snapshot is not None and snapshot.covers_time(when):
        source, bound = "live", _live_bound(server, key)
        position = snapshot.position_at(when)
    elif key in server.store and server.store.get(key).covers_time(when):
        source, bound = "stored", server.store.record(key).sync_error_bound_m
        position = brute_position(server.store, key, when)
    else:
        return None
    return {"source": source, "x": float(position[0]), "y": float(position[1]),
            "error_bound_m": bound}


def _samples(server: TrajectoryServer) -> tuple[list[float], np.ndarray]:
    """Every stored and live sample time and position."""
    trajs = [server.store.get(key) for key in server.store.object_ids()]
    trajs += list(_overlays(server).values())
    times = sorted({float(v) for traj in trajs for v in traj.t})
    return times, np.vstack([traj.xy for traj in trajs])


@pytest.mark.parametrize("seed", range(12))
def test_window_equals_the_brute_merge(seed):
    rng = np.random.default_rng(1000 + seed)
    for server in _stages(seed):
        times, points = _samples(server)
        for _ in range(12):
            t0, t1 = sorted(float(v) for v in rng.choice(times, 2))
            cx, cy = points[int(rng.integers(len(points)))]
            w, h = rng.choice([0.0, 20.0, 150.0, 2000.0], 2)
            # The sample sits at the box centre, or 5 m inside or outside
            # its left edge: within one error margin, where the modes differ.
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
    rng = np.random.default_rng(2000 + seed)
    for server in _stages(seed):
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


@pytest.mark.parametrize("seed", range(12))
def test_position_equals_the_brute_merge(seed):
    rng = np.random.default_rng(3000 + seed)
    for server in _stages(seed):
        times, _ = _samples(server)
        keys = sorted(set(server.store.object_ids()) | set(server.manager.sessions))
        for _ in range(24):
            key = str(rng.choice([*keys, "nobody"]))
            i = int(rng.integers(len(times)))
            # A sample time, or halfway to the next: between two samples.
            when = times[i] if rng.random() < 0.5 or i + 1 == len(times) \
                else (times[i] + times[i + 1]) / 2
            message = {"op": "query", "query": "position", "object": key, "t": when}
            expected = _brute_position(server, key, when)
            if expected is None:
                with pytest.raises(ServeError) as refused:
                    server._op_query(message)
                assert refused.value.code == "not-found"
                continue
            response = server._op_query(message)
            result = response["result"]
            assert {"source": response["source"], "x": result["x"], "y": result["y"],
                    "error_bound_m": result["error_bound_m"]} == expected
            assert (result["object"], result["t"]) == (key, when)


def test_live_sessions_cost_the_stored_side_no_decodes(monkeypatch):
    """Live sessions of new ids add nothing to ``query_decoded_bytes``,
    and a stored record that a live session shadows is never decoded."""
    rng = np.random.default_rng(0)
    store = TrajectoryStore(summary_partition_points=2)
    t, _ = _walk(rng, 8)
    for i in range(4):
        store.insert(Trajectory(t, _walk(rng, 8)[1], f"obj-{i}"))
    server = TrajectoryServer(store=store)
    shadowed = store.get("obj-1")
    queries = []
    for when, (x, y) in zip(shadowed.t, shadowed.xy):
        queries.append({"op": "query", "query": "nearest",
                        "x": float(x), "y": float(y), "t": float(when), "k": 2})
        queries.append({"op": "query", "query": "window", "t0": float(when) - 5.0,
                        "t1": float(when) + 5.0,
                        "bbox": [float(x) - 20.0, float(y) - 20.0,
                                 float(x) + 20.0, float(y) + 20.0]})

    def decoded_bytes() -> int:
        before = server.metrics.counter("query_decoded_bytes").value
        for message in queries:
            server._op_query(message)
        return server.metrics.counter("query_decoded_bytes").value - before

    alone = decoded_bytes()
    assert alone > 0
    # Far from every stored object, over the same times: new ids.
    far = [Fix(float(when), 1e6 + i, 1e6) for i, when in enumerate(shadowed.t)]
    for key in ("new-a", "new-b"):
        server.manager.open(key, SPECS[0])
        server.manager.append_batch(key, far)
    assert decoded_bytes() == alone

    blobs: list[bytes] = []
    decode = repro.query.engine.decode_partition

    def spy(blob, *args):
        blobs.append(blob)
        return decode(blob, *args)

    monkeypatch.setattr(repro.query.engine, "decode_partition", spy)
    server.manager.open("obj-1", SPECS[0])
    server.manager.append_batch("obj-1", far)
    decoded_bytes()
    server._op_query({"op": "query", "query": "position", "object": "obj-1",
                      "t": float(shadowed.t[3])})
    assert blobs, "the queries decoded nothing: the spy proves nothing"
    assert store.record("obj-1").blob not in blobs
