"""Brute-force decode-everything reference answers.

The honesty yardstick for :class:`~repro.query.engine.QueryEngine`:
every function here decodes whole trajectories and answers from first
principles, with no summaries, no pruning and no partial decoding. The
differential suites hold the engine to them, for stored records and live
sessions alike, and the layered benchmark checks served answers against
them. No serving path calls them: the engine answers live sessions too.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.bbox import BBox
from repro.geometry.clip import segment_intersects_bbox
from repro.storage.store import TrajectoryStore, effective_query_box
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "window_hit",
    "brute_position",
    "brute_window",
    "brute_nearest",
]


def window_hit(traj: Trajectory, t0: float, t1: float, box: BBox) -> bool:
    """Whether ``traj`` passes through ``box`` inside ``[t0, t1]``.

    The samples inside the window form one contiguous run (timestamps
    are strictly increasing); the run matches when its single sample
    lies in the box, or any of its segments intersects the box —
    exactly the store's slice-then-verify semantics.
    """
    mask = (traj.t >= t0) & (traj.t <= t1)
    hits = np.nonzero(mask)[0]
    if hits.size == 0:
        return False
    if hits.size == 1:
        i = int(hits[0])
        return box.contains_point(float(traj.xy[i, 0]), float(traj.xy[i, 1]))
    for i in range(int(hits[0]), int(hits[-1])):
        if segment_intersects_bbox(traj.xy[i], traj.xy[i + 1], box):
            return True
    return False


def brute_position(store: TrajectoryStore, object_id: str, when: float) -> np.ndarray:
    """Full-decode ``position_at`` (raises like the trajectory model)."""
    return store.get(object_id).position_at(when)


def brute_window(
    store: TrajectoryStore,
    t0: float,
    t1: float,
    box: BBox | None = None,
    mode: str = "stored",
) -> list[str]:
    """Full-decode window answer over every stored object."""
    if box is None:
        return store.query_time_window(t0, t1)
    out = []
    for key in store.object_ids():
        rec = store.record(key)
        effective = effective_query_box(box, rec, mode)
        if effective is None:
            continue
        if window_hit(store.get(key), t0, t1, effective):
            out.append(key)
    return out


def brute_nearest(
    store: TrajectoryStore, x: float, y: float, when: float, k: int = 1
) -> list[tuple[str, float]]:
    """Full-decode k-nearest answer over every stored object."""
    target = np.array([float(x), float(y)])
    ranked: list[tuple[float, str]] = []
    for key in store.object_ids():
        traj = store.get(key)
        if not traj.covers_time(when):
            continue
        position = traj.position_at(when)
        ranked.append((float(np.hypot(*(position - target))), key))
    ranked.sort()
    return [(key, distance) for distance, key in ranked[:k]]
