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
time spans and bboxes (:meth:`TrajectoryStore.candidate_rows`), so the
sweep needs no padding for quantization; the candidates' partition
rows (:meth:`StoreColumns.partitions_of
<repro.storage.store.StoreColumns.partitions_of>`), read by field
name, then prune partitions, and only the surviving ones are decoded.

Live sessions are a second source (``QueryEngine(live=...)``): they are
candidates by the span and bbox of the fixes they accepted, and answer
from their snapshots through the same window test, ``position_at`` and
ranking. A session with an accepted fix shadows its id's stored record.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.exceptions import ObjectNotFoundError  # noqa: F401 - re-raised to callers
from repro.geometry.bbox import BBox
from repro.geometry.clip import segment_intersects_bbox
from repro.obs import Registry, get_registry
from repro.query.summaries import PartitionRow
from repro.storage.codec import blob_layout, decode_partition
from repro.storage.store import (
    RecordRow,
    StoreColumns,
    TrajectoryStore,
    effective_query_box,
)
from repro.trajectory.trajectory import Trajectory

__all__ = ["PositionAnswer", "NearestAnswer", "LiveSession", "QueryEngine"]


@dataclass(frozen=True, slots=True)
class PositionAnswer:
    """An interpolated position with the record's honesty margin."""

    object_id: str
    t: float
    x: float
    y: float
    #: The answering geometry's synchronized error bound against the raw
    #: movement (compressor guarantee, plus codec quantization slack for
    #: a stored record), or ``None`` when the ingest path gave no
    #: guarantee.
    error_bound_m: float | None
    #: ``"live"`` (a live session's snapshot) or ``"stored"``.
    source: str

    def to_wire(self) -> dict:
        """JSON-friendly ``result`` of the ``query position`` verb."""
        return {"object": self.object_id, "t": self.t, "x": self.x, "y": self.y,
                "error_bound_m": self.error_bound_m}


@dataclass(frozen=True, slots=True)
class NearestAnswer:
    """One ranked answer of a k-nearest query."""

    object_id: str
    distance_m: float
    x: float
    y: float
    error_bound_m: float | None
    source: str

    def to_wire(self) -> dict:
        """JSON-friendly entry of the ``query nearest`` verb's results."""
        return {"object": self.object_id, "distance_m": self.distance_m, "x": self.x,
                "y": self.y, "error_bound_m": self.error_bound_m, "source": self.source}


class LiveSession(Protocol):
    """What the engine reads of a live session
    (:class:`repro.serve.session.Session`): the span and bbox of its
    accepted fixes (``None`` before the first), its error bound and its
    snapshot of every acked fix."""

    @property
    def span(self) -> tuple[float, float] | None: ...
    @property
    def bbox(self) -> BBox | None: ...
    @property
    def sync_error_bound_m(self) -> float | None: ...
    def snapshot(self) -> Trajectory | None:
        """Every acked fix as a trajectory (``None`` before the first)."""


class _QueryStats:
    """Per-query decode accounting, flushed to the registry afterwards."""

    __slots__ = ("considered", "decoded", "decoded_bytes", "decoded_points", "records")

    def __init__(self) -> None:
        self.considered = 0
        self.decoded = 0
        self.decoded_bytes = 0
        self.decoded_points = 0
        self.records: set[str] = set()


def _lower_bound(x: float, y: float, box: BBox | PartitionRow) -> float:
    """Distance from ``(x, y)`` to the closed ``box`` (a bbox or a
    partition row's bounds; 0 inside), one ulp down: it must stay below
    every true distance after hypot rounding."""
    dx = max(box.min_x - x, 0.0, x - box.max_x)
    dy = max(box.min_y - y, 0.0, y - box.max_y)
    return math.nextafter(math.hypot(dx, dy), -math.inf)


def _arrays_hit(
    t: np.ndarray, xy: np.ndarray, t0: float, t1: float, box: BBox
) -> bool:
    """Whether samples ``(t, xy)`` pass through ``box`` inside ``[t0, t1]``:
    an in-window sample inside ``box``, or a segment with both ends in the
    window meeting it. With two or more in-window samples, one inside
    the box has an in-window incident segment meeting it, so this is the
    slice-then-verify answer of :func:`~repro.query.baseline.window_hit`.
    """
    in_window = (t >= t0) & (t <= t1)
    for i in np.nonzero(in_window)[0]:
        if box.contains_point(float(xy[i, 0]), float(xy[i, 1])):
            return True
        if i + 1 < len(t) and in_window[i + 1]:
            if segment_intersects_bbox(xy[i], xy[i + 1], box):
                return True
    return False


def _live_position(session: LiveSession, when: float) -> np.ndarray | None:
    """The live snapshot's position, or ``None`` when it misses ``when``."""
    span = session.span
    snapshot = None if span is None or not span[0] <= when <= span[1] \
        else session.snapshot()
    if snapshot is None or not snapshot.covers_time(when):
        return None
    return snapshot.position_at(when)


class QueryEngine:
    """Answers position/window/nearest queries by partition pruning.

    Args:
        store: the compressed store to query; live inserts are picked up
            immediately (summaries are maintained incrementally).
        metrics: registry for query instrumentation; falls back to the
            ambient :func:`repro.obs.get_registry`.
        live: live sessions by id, read at every query (the serve tier
            passes :attr:`SessionManager.sessions
            <repro.serve.session.SessionManager.sessions>`); ``None``
            answers from the store alone.
    """

    def __init__(
        self,
        store: TrajectoryStore,
        metrics: Registry | None = None,
        live: Mapping[str, LiveSession] | None = None,
    ) -> None:
        self.store = store
        self.metrics = metrics
        self.live: Mapping[str, LiveSession] = {} if live is None else live

    def _registry(self) -> Registry:
        return self.metrics if self.metrics is not None else get_registry()

    # ------------------------------------------------------------------ #
    # Decode plumbing
    # ------------------------------------------------------------------ #

    def _decode(
        self, cols: StoreColumns, row: int, part: PartitionRow, first: bool,
        stats: _QueryStats,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode one partition (bridge included) of the record in ``row``,
        with accounting; ``first``: the record's first partition."""
        blob = cols.blobs[row]
        t, xy, end = decode_partition(
            blob, blob_layout(blob), part.offset, part.n_points, part.checkpoint(first)
        )
        stats.decoded += 1
        stats.decoded_bytes += end - part.offset
        stats.decoded_points += len(t)
        stats.records.add(cols.ids[row])
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
        self, cols: StoreColumns, row: int, parts: list[PartitionRow], when: float,
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
        stats.considered += len(parts)
        for index, part in enumerate(parts):
            if not part.t_lo <= when <= part.t_hi:
                continue
            t, xy = self._decode(cols, row, part, index == 0, stats)
            if when < t[0] or when > t[-1]:
                continue
            if when == t[-1] and index != len(parts) - 1:
                continue
            traj = Trajectory(t, xy, cols.ids[row], _validated=True)
            return traj.position_at(when)
        return None

    def _stored(
        self, t0: float, t1: float, box: BBox | None = None
    ) -> tuple[StoreColumns, list[tuple[int, str, RecordRow]]]:
        """The store's columns and its catalog candidates that no live
        session shadows, each ``(row, id, record row)``."""
        rows = self.store.candidate_rows(t0, t1, box)
        cols = self.store.columns(rows)
        candidates = []
        for row in rows.tolist():
            key = cols.ids[row]
            if not self._shadowed(key):
                candidates.append((row, key, cols.record(row)))
        return cols, candidates

    def _shadowed(self, object_id: str) -> bool:
        """Whether a live session with an accepted fix answers for the id."""
        session = self.live.get(object_id)
        return session is not None and session.span is not None

    def _live_candidates(
        self, t0: float, t1: float
    ) -> Iterator[tuple[str, LiveSession, BBox]]:
        """Live sessions whose span meets ``[t0, t1]``, with their bbox."""
        for key, session in self.live.items():
            span, bbox = session.span, session.bbox
            if span is not None and bbox is not None and span[0] <= t1 and span[1] >= t0:
                yield key, session, bbox

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def position_at(self, object_id: str, when: float) -> PositionAnswer:
        """Interpolated position of ``object_id`` at time ``when``.

        A live session whose acked fixes cover ``when`` answers; failing
        that, the stored record does.

        Raises:
            ObjectNotFoundError: no covering live session and no stored
                record of that id.
            ValueError: ``when`` outside the stored interval.
        """
        when = float(when)
        stats = _QueryStats()
        with self._registry().timer("query.position.s").time():
            session = self.live.get(object_id)
            position = None if session is None else _live_position(session, when)
            if session is not None and position is not None:
                bound, source = session.sync_error_bound_m, "live"
            else:
                row = self.store.row_of(object_id)
                cols = self.store.columns([row])
                record = cols.record(row)
                bound, source = record.sync_error_bound_m, "stored"
                position = self._position(cols, row, cols.partitions_of(record), when,
                                          stats)
        self._flush("position", stats)
        if position is None:
            raise ValueError(f"time {when} outside stored interval of {object_id!r}")
        return PositionAnswer(
            object_id, when, float(position[0]), float(position[1]), bound, source
        )

    def window(
        self,
        t0: float,
        t1: float,
        box: BBox | None = None,
        mode: str = "stored",
    ) -> list[str]:
        """Ids matching a time window, optionally restricted to a box.

        Without ``box`` this is the interval overlap query: the
        catalog's (exactly :meth:`TrajectoryStore.query_time_window`)
        and the live sessions' spans. With a box the answer is defined
        on decoded geometry: an object matches when an in-window sample
        lies in the (mode-adjusted) box or an in-window segment
        intersects it — identical to
        :func:`~repro.query.baseline.brute_window`, but computed from
        only the partitions and live snapshots that survive pruning.
        """
        t0, t1 = float(t0), float(t1)
        if t1 < t0:
            raise ValueError(f"empty time window [{t0}, {t1}]")
        if mode not in ("stored", "possibly", "definitely"):
            raise ValueError(f"unknown query mode {mode!r}")
        if box is None:
            out = [
                key for key in self.store.query_time_window(t0, t1)
                if not self._shadowed(key)
            ]
            out += [key for key, _, _ in self._live_candidates(t0, t1)]
            out.sort()
            self._flush("window", _QueryStats())
            return out
        stats = _QueryStats()
        with self._registry().timer("query.window.s").time():
            sweep = box.expanded(self.store.max_sync_error_bound()) \
                if mode == "possibly" else box
            cols, candidates = self._stored(t0, t1, sweep)
            out = []
            for row, key, record in candidates:
                effective = effective_query_box(box, record, mode)
                if effective is None or not record.bbox.intersects(effective):
                    continue
                if self._window_hit(cols, row, cols.partitions_of(record),
                                    t0, t1, effective, stats):
                    out.append(key)
            for key, session, bbox in self._live_candidates(t0, t1):
                effective = effective_query_box(box, session, mode)
                if effective is None or not bbox.intersects(effective):
                    continue
                snapshot = session.snapshot()
                if snapshot is not None and _arrays_hit(snapshot.t, snapshot.xy,
                                                        t0, t1, effective):
                    out.append(key)
            out.sort()
        self._flush("window", stats)
        return out

    def _window_hit(
        self,
        cols: StoreColumns,
        row: int,
        parts: list[PartitionRow],
        t0: float,
        t1: float,
        box: BBox,
        stats: _QueryStats,
    ) -> bool:
        """Decoded-geometry window test over the partitions whose bounds
        meet ``[t0, t1]`` and ``box``.

        Each global segment lives in exactly one partition (bridge
        included), so :func:`_arrays_hit` over each decoded partition
        reproduces the whole-trajectory answer.
        """
        stats.considered += len(parts)
        for index, part in enumerate(parts):
            if part.t_lo > t1 or part.t_hi < t0 or not part.bbox.intersects(box):
                continue
            t, xy = self._decode(cols, row, part, index == 0, stats)
            if _arrays_hit(t, xy, t0, t1, box):
                return True
        return False

    def nearest(
        self, x: float, y: float, when: float, k: int = 1
    ) -> list[NearestAnswer]:
        """The ``k`` objects nearest to ``(x, y)`` at time ``when``.

        Candidates are ranked by a lower bound — the distance to the
        covering partition's box of a stored record, to the accepted
        fixes' bbox of a live session — and answered in that order; the
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
            # (lower bound, id, row, record row or None, live session or None)
            entries: list[tuple] = []
            cols, candidates = self._stored(when, when)
            for row, key, record in candidates:
                parts = cols.partitions_of(record)
                bounds = [_lower_bound(x, y, part) for part in parts
                          if part.t_lo <= when <= part.t_hi]
                if bounds:
                    entries.append((min(bounds), key, row, (record, parts), None))
            for key, session, bbox in self._live_candidates(when, when):
                entries.append((_lower_bound(x, y, bbox), key, -1, None, session))
            entries.sort()  # ids are unique: later fields are never compared
            best: list[NearestAnswer] = []
            for lower, key, row, stored, session in entries:
                if len(best) == k and lower > best[-1].distance_m:
                    break
                if session is None:
                    record, parts = stored
                    bound, source = record.sync_error_bound_m, "stored"
                    position = self._position(cols, row, parts, when, stats)
                else:
                    bound, source = session.sync_error_bound_m, "live"
                    position = _live_position(session, when)
                if position is None:
                    continue  # the geometry does not cover ``when``
                distance = float(np.hypot(*(position - target)))
                best.append(NearestAnswer(key, distance, float(position[0]),
                                          float(position[1]), bound, source))
                best.sort(key=lambda answer: (answer.distance_m, answer.object_id))
                del best[k:]
        self._flush("nearest", stats)
        return best
