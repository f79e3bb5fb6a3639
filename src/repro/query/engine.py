"""Summary-pruned queries over a compressed trajectory store.

The engine answers the three moving-object queries of the paper's
motivating application — "where was object X at time t", window, and
k-nearest — while decoding only the blob partitions whose
:mod:`summaries <repro.query.summaries>` survive pruning. It never
performs a whole-store load.

Exactness contract: every answer is bit-identical to the brute-force
answer computed by decoding everything (:mod:`repro.query.baseline`),
because

* partition summaries are quantized *outward* from decoded geometry, so
  pruning only ever discards partitions that cannot contain an answer;
* a decoded partition carries its bridging sample, so its rows are the
  exact rows of a full decode and every segment is examined in exactly
  one partition;
* interpolation runs through the same
  :meth:`~repro.trajectory.trajectory.Trajectory.position_at` code path
  on the same float values.

Candidates come from one mask over the store's catalog of decoded
time spans and bboxes (:meth:`TrajectoryStore.candidates`), so the
sweep needs no padding for quantization; summaries then prune
partitions within each candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ObjectNotFoundError  # noqa: F401 - re-raised to callers
from repro.geometry.bbox import BBox
from repro.geometry.clip import segment_intersects_bbox
from repro.obs import Registry, get_registry
from repro.storage.codec import blob_layout, decode_partition
from repro.storage.store import StoredRecord, TrajectoryStore, effective_query_box
from repro.query.summaries import ObjectSummary, PartitionSummary
from repro.trajectory.trajectory import Trajectory

__all__ = ["PositionAnswer", "NearestAnswer", "QueryEngine"]


@dataclass(frozen=True, slots=True)
class PositionAnswer:
    """An interpolated position with the record's honesty margin."""

    object_id: str
    t: float
    x: float
    y: float
    #: The stored geometry's synchronized error bound against the raw
    #: movement (compressor guarantee + codec quantization slack), or
    #: ``None`` when the ingest path gave no guarantee.
    error_bound_m: float | None


@dataclass(frozen=True, slots=True)
class NearestAnswer:
    """One ranked answer of a k-nearest query."""

    object_id: str
    distance_m: float
    x: float
    y: float
    error_bound_m: float | None


class _QueryStats:
    """Per-query decode accounting, flushed to the registry afterwards."""

    __slots__ = ("considered", "decoded", "decoded_bytes", "decoded_points", "records")

    def __init__(self) -> None:
        self.considered = 0
        self.decoded = 0
        self.decoded_bytes = 0
        self.decoded_points = 0
        self.records: set[str] = set()


def _bbox_distance(x: float, y: float, box: BBox) -> float:
    """Distance from ``(x, y)`` to the closed rectangle (0 inside)."""
    dx = max(box.min_x - x, 0.0, x - box.max_x)
    dy = max(box.min_y - y, 0.0, y - box.max_y)
    return math.hypot(dx, dy)


class QueryEngine:
    """Answers position/window/nearest queries by partition pruning.

    Args:
        store: the compressed store to query; live inserts are picked up
            immediately (summaries are maintained incrementally).
        metrics: registry for query instrumentation; falls back to the
            ambient :func:`repro.obs.get_registry`.
    """

    def __init__(
        self, store: TrajectoryStore, metrics: Registry | None = None
    ) -> None:
        self.store = store
        self.metrics = metrics

    def _registry(self) -> Registry:
        return self.metrics if self.metrics is not None else get_registry()

    # ------------------------------------------------------------------ #
    # Decode plumbing
    # ------------------------------------------------------------------ #

    def _decode(
        self, rec: StoredRecord, part: PartitionSummary, stats: _QueryStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode one partition (bridge included), with accounting."""
        layout = blob_layout(rec.blob)
        t, xy, end = decode_partition(
            rec.blob, layout, part.offset, part.n_points, part.prev
        )
        stats.decoded += 1
        stats.decoded_bytes += end - part.offset
        stats.decoded_points += len(t)
        stats.records.add(rec.object_id)
        return t, xy

    def _flush(self, verb: str, stats: _QueryStats) -> None:
        registry = self._registry()
        registry.counter("queries").inc()
        registry.counter(f"queries_{verb}").inc()
        registry.counter("query_decoded_records").inc(len(stats.records))
        registry.counter("query_decoded_bytes").inc(stats.decoded_bytes)
        registry.counter("query_decoded_points").inc(stats.decoded_points)
        if stats.considered:
            registry.gauge("query_prune_ratio").set(
                1.0 - stats.decoded / stats.considered
            )

    def _position(
        self,
        rec: StoredRecord,
        summary: ObjectSummary,
        when: float,
        stats: _QueryStats,
    ) -> np.ndarray | None:
        """Interpolated position, or ``None`` when the decoded interval
        does not cover ``when``.

        The accepting partition is the one owning the segment a global
        ``searchsorted`` would select: the partition whose decoded rows
        satisfy ``t[0] <= when < t[-1]`` (the final partition also
        accepts ``when == t[-1]``), which makes the interpolation
        bit-identical to a full decode.
        """
        last = summary.partitions[-1]
        stats.considered += len(summary.partitions)
        for part in summary.partitions:
            if not part.covers_time(when):
                continue
            t, xy = self._decode(rec, part, stats)
            if when < t[0] or when > t[-1]:
                continue
            if when == t[-1] and part is not last:
                continue
            traj = Trajectory(t, xy, rec.object_id, _validated=True)
            return traj.position_at(when)
        return None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def position_at(self, object_id: str, when: float) -> PositionAnswer:
        """Interpolated position of ``object_id`` at time ``when``.

        Raises:
            ObjectNotFoundError: unknown id.
            ValueError: ``when`` outside the stored interval.
        """
        rec = self.store.record(object_id)
        stats = _QueryStats()
        with self._registry().timer("query.position.s").time():
            summary = self.store.summary(object_id)
            position = self._position(rec, summary, float(when), stats)
        self._flush("position", stats)
        if position is None:
            raise ValueError(
                f"time {when} outside stored interval of {object_id!r}"
            )
        return PositionAnswer(
            object_id, float(when),
            float(position[0]), float(position[1]),
            rec.sync_error_bound_m,
        )

    def window(
        self,
        t0: float,
        t1: float,
        box: BBox | None = None,
        mode: str = "stored",
    ) -> list[str]:
        """Ids matching a time window, optionally restricted to a box.

        Without ``box`` this is the catalog-interval overlap query
        (exactly :meth:`TrajectoryStore.query_time_window`). With a box
        the answer is defined on decoded geometry: an object matches
        when an in-window sample lies in the (mode-adjusted) box or an
        in-window segment intersects it — identical to
        :func:`~repro.query.baseline.brute_window`, but computed from
        only the partitions that survive pruning.
        """
        t0, t1 = float(t0), float(t1)
        if t1 < t0:
            raise ValueError(f"empty time window [{t0}, {t1}]")
        if mode not in ("stored", "possibly", "definitely"):
            raise ValueError(f"unknown query mode {mode!r}")
        if box is None:
            out = self.store.query_time_window(t0, t1)
            self._flush("window", _QueryStats())
            return out
        stats = _QueryStats()
        with self._registry().timer("query.window.s").time():
            sweep = box.expanded(self.store.max_sync_error_bound()) \
                if mode == "possibly" else box
            out = []
            for key in self.store.candidates(t0, t1, sweep):
                rec = self.store.record(key)
                effective = effective_query_box(box, rec, mode)
                if effective is None or not rec.bbox.intersects(effective):
                    continue
                summary = self.store.summary(key)
                if self._window_hit(rec, summary, t0, t1, effective, stats):
                    out.append(key)
        self._flush("window", stats)
        return out

    def _window_hit(
        self,
        rec: StoredRecord,
        summary: ObjectSummary,
        t0: float,
        t1: float,
        box: BBox,
        stats: _QueryStats,
    ) -> bool:
        """Decoded-geometry window test over surviving partitions.

        A match is an in-window sample inside ``box`` or a segment with
        both endpoints in the window intersecting ``box``. Each global
        segment lives in exactly one partition (bridge included), and an
        in-window sample inside the box always has an in-window incident
        segment when the object has two or more in-window samples — so
        the per-partition test reproduces the slice-then-verify answer.
        """
        stats.considered += len(summary.partitions)
        for part in summary.partitions:
            if not part.overlaps_window(t0, t1):
                continue
            if not part.bbox.intersects(box):
                continue
            t, xy = self._decode(rec, part, stats)
            in_window = (t >= t0) & (t <= t1)
            hits = np.nonzero(in_window)[0]
            if hits.size == 0:
                continue
            for i in hits:
                if box.contains_point(float(xy[i, 0]), float(xy[i, 1])):
                    return True
                if i + 1 < len(t) and in_window[i + 1]:
                    if segment_intersects_bbox(xy[i], xy[i + 1], box):
                        return True
        return False

    def nearest(
        self, x: float, y: float, when: float, k: int = 1
    ) -> list[NearestAnswer]:
        """The ``k`` objects nearest to ``(x, y)`` at time ``when``.

        Candidates are ranked by their summary lower bound (distance to
        the covering partition's box) and decoded in that order; the
        scan stops as soon as the next lower bound exceeds the current
        k-th distance. Ties are broken by object id, identical to the
        brute-force ranking.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        x, y, when = float(x), float(y), float(when)
        target = np.array([x, y])
        stats = _QueryStats()
        with self._registry().timer("query.nearest.s").time():
            entries: list[tuple[float, str]] = []
            for key in self.store.query_time_window(when, when):
                summary = self.store.summary(key)
                bound = math.inf
                for part in summary.partitions:
                    if part.covers_time(when):
                        bound = min(bound, _bbox_distance(x, y, part.bbox))
                if math.isfinite(bound):
                    # One ulp down: the bound must stay below every true
                    # distance even after hypot rounding.
                    entries.append((math.nextafter(bound, -math.inf), key))
            entries.sort()
            best: list[tuple[float, str, float, float]] = []
            for lower, key in entries:
                if len(best) == k and lower > best[-1][0]:
                    break
                rec = self.store.record(key)
                position = self._position(rec, self.store.summary(key), when, stats)
                if position is None:
                    continue  # decoded interval does not cover ``when``
                distance = float(np.hypot(*(position - target)))
                best.append((distance, key, float(position[0]), float(position[1])))
                best.sort()
                del best[k:]
        self._flush("nearest", stats)
        return [
            NearestAnswer(
                key, distance, px, py,
                self.store.record(key).sync_error_bound_m,
            )
            for distance, key, px, py in best
        ]
