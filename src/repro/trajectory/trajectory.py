"""The core trajectory data model.

A :class:`Trajectory` is the library's representation of the paper's
"positional time series": a finite sequence of time-stamped planar
positions, interpreted between samples as a piecewise-linear path
(Sect. 2). It is immutable — every operation returns a new trajectory —
and numpy-backed so the O(N²) compression algorithms can vectorize their
inner loops.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import (
    EmptyTrajectoryError,
    TimestampOrderError,
    TrajectoryError,
)
from repro.geometry.interpolation import time_ratio_position
from repro.geometry.bbox import BBox
from repro.types import Fix

__all__ = ["Trajectory"]


class Trajectory:
    """An immutable time-stamped position series.

    Attributes:
        t: timestamps in seconds, float64, shape ``(n,)``, strictly
            increasing.
        xy: positions in metres, float64, shape ``(n, 2)``.
        object_id: optional identifier of the moving object.

    The arrays exposed via :attr:`t` and :attr:`xy` are read-only views;
    mutating them raises ``ValueError`` from numpy.
    """

    __slots__ = ("_t", "_xy", "_cols", "object_id")

    def __init__(
        self,
        t: np.ndarray,
        xy: np.ndarray,
        object_id: str | None = None,
        *,
        _validated: bool = False,
    ) -> None:
        """Build a trajectory from raw arrays.

        Args:
            t: timestamps, shape ``(n,)``, strictly increasing, finite.
            xy: positions, shape ``(n, 2)``, finite.
            object_id: optional moving-object identifier carried through
                compression and storage.

        Raises:
            TrajectoryError: on shape/dtype/content problems.
            TimestampOrderError: when timestamps are not strictly
                increasing.
        """
        t = np.ascontiguousarray(t, dtype=float)
        xy = np.ascontiguousarray(xy, dtype=float)
        if not _validated:
            _validate_arrays(t, xy)
        t.setflags(write=False)
        xy.setflags(write=False)
        self._t = t
        self._xy = xy
        self._cols = {}
        self.object_id = object_id

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_points(
        cls, points: Iterable[tuple[float, float, float] | Fix], object_id: str | None = None
    ) -> "Trajectory":
        """Build a trajectory from an iterable of ``(t, x, y)`` triples."""
        rows = [(float(p[0]), float(p[1]), float(p[2])) for p in points]
        if not rows:
            raise EmptyTrajectoryError("a trajectory needs at least one point")
        arr = np.asarray(rows, dtype=float)
        return cls(arr[:, 0], arr[:, 1:3], object_id)

    @classmethod
    def from_arrays(
        cls,
        t: Sequence[float] | np.ndarray,
        x: Sequence[float] | np.ndarray,
        y: Sequence[float] | np.ndarray,
        object_id: str | None = None,
    ) -> "Trajectory":
        """Build a trajectory from separate ``t``, ``x``, ``y`` sequences."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (t.shape == x.shape == y.shape):
            raise TrajectoryError(
                f"t/x/y must have equal shapes, got {t.shape}, {x.shape}, {y.shape}"
            )
        return cls(t, np.column_stack([x, y]), object_id)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def t(self) -> np.ndarray:
        """Timestamps (read-only, shape ``(n,)``)."""
        return self._t

    @property
    def xy(self) -> np.ndarray:
        """Positions (read-only, shape ``(n, 2)``)."""
        return self._xy

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(t, x, y)`` as C-contiguous read-only float64 arrays (cached).

        The kernel layer (:mod:`repro.core.kernels`) works on flat
        coordinate columns; ``xy[:, 0]`` is a strided view, so the
        contiguous copies are materialized once per trajectory and reused
        by every subsequent compression or error sweep.
        """
        cached = self._cols.get("columns")
        if cached is None:
            x = np.ascontiguousarray(self._xy[:, 0])
            y = np.ascontiguousarray(self._xy[:, 1])
            x.setflags(write=False)
            y.setflags(write=False)
            cached = (self._t, x, y)
            self._cols["columns"] = cached
        return cached

    @property
    def column_lists(self) -> tuple[list[float], list[float], list[float]]:
        """``(t, x, y)`` as plain Python float lists (cached).

        The scalar side of :mod:`repro.core.kernels`, which runs every
        sweep shorter than its numpy cutoff, and the inherently
        sequential compressors iterate point by point; indexing numpy
        arrays from Python allocates a scalar object per access, so those
        loops run on these cached lists instead.
        """
        cached = self._cols.get("column_lists")
        if cached is None:
            t, x, y = self.columns
            cached = (t.tolist(), x.tolist(), y.tolist())
            self._cols["column_lists"] = cached
        return cached

    @property
    def x(self) -> np.ndarray:
        """Eastings (read-only view, shape ``(n,)``)."""
        return self._xy[:, 0]

    @property
    def y(self) -> np.ndarray:
        """Northings (read-only view, shape ``(n,)``)."""
        return self._xy[:, 1]

    def __len__(self) -> int:
        return self._t.shape[0]

    def __iter__(self) -> Iterator[Fix]:
        for i in range(len(self)):
            yield self.point(i)

    def point(self, i: int) -> Fix:
        """The ``i``-th data point as a :class:`~repro.types.Fix`.

        Negative indices follow Python conventions.
        """
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"point index {i} out of range for {n} points")
        return Fix(float(self._t[i]), float(self._xy[i, 0]), float(self._xy[i, 1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            len(self) == len(other)
            and bool(np.array_equal(self._t, other._t))
            and bool(np.array_equal(self._xy, other._xy))
        )

    def __hash__(self) -> int:
        return hash((self._t.tobytes(), self._xy.tobytes()))

    def __getstate__(self):
        # Ship only the defining arrays; the column caches are cheap to
        # rebuild and would otherwise bloat process-pool pickles.
        return (self._t, self._xy, self.object_id)

    def __setstate__(self, state) -> None:
        self._t, self._xy, self.object_id = state
        self._cols = {}

    def __repr__(self) -> str:
        ident = f" id={self.object_id!r}" if self.object_id else ""
        if len(self) == 0:  # pragma: no cover - construction forbids this
            return f"Trajectory(empty{ident})"
        return (
            f"Trajectory(n={len(self)}{ident}, "
            f"t=[{self._t[0]:.1f}..{self._t[-1]:.1f}])"
        )

    # ------------------------------------------------------------------ #
    # Temporal interpolation
    # ------------------------------------------------------------------ #

    @property
    def start_time(self) -> float:
        return float(self._t[0])

    @property
    def end_time(self) -> float:
        return float(self._t[-1])

    def covers_time(self, when: float) -> bool:
        """Whether ``when`` falls inside the trajectory's time interval."""
        return self.start_time <= when <= self.end_time

    def segment_index_at(self, when: float) -> int:
        """Index ``i`` such that ``t[i] <= when <= t[i+1]``.

        The final timestamp maps to the last segment. Raises ``ValueError``
        outside the covered interval or for single-point trajectories.
        """
        if len(self) < 2:
            raise TrajectoryError("a single-point trajectory has no segments")
        if not self.covers_time(when):
            raise ValueError(
                f"time {when} outside trajectory interval "
                f"[{self.start_time}, {self.end_time}]"
            )
        idx = int(np.searchsorted(self._t, when, side="right")) - 1
        return min(idx, len(self) - 2)

    def position_at(self, when: float) -> np.ndarray:
        """Interpolated position at time ``when`` (paper Eqs. 1–2).

        This is ``loc(p, t)`` of Sect. 4.2: the piecewise-linear object
        position, defined on ``[t[0], t[-1]]``.
        """
        if len(self) == 1:
            if when != self.start_time:
                raise ValueError(
                    f"single-point trajectory only defined at t={self.start_time}"
                )
            return self._xy[0].copy()
        i = self.segment_index_at(when)
        return time_ratio_position(
            float(self._t[i]), self._xy[i], float(self._t[i + 1]), self._xy[i + 1], when
        )

    def positions_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`position_at` for sorted or unsorted times.

        Args:
            times: query times, all inside the covered interval.

        Returns:
            Array of shape ``(len(times), 2)``.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            return np.empty((0, 2))
        if len(self) == 1:
            if np.any(times != self.start_time):
                raise ValueError("single-point trajectory only defined at its own time")
            return np.broadcast_to(self._xy[0], (times.size, 2)).copy()
        if float(times.min()) < self.start_time or float(times.max()) > self.end_time:
            raise ValueError("query times outside trajectory interval")
        idx = np.clip(
            np.searchsorted(self._t, times, side="right") - 1, 0, len(self) - 2
        )
        t0 = self._t[idx]
        t1 = self._t[idx + 1]
        ratio = (times - t0) / (t1 - t0)
        p0 = self._xy[idx]
        p1 = self._xy[idx + 1]
        return p0 + ratio[:, None] * (p1 - p0)

    # ------------------------------------------------------------------ #
    # Structural operations
    # ------------------------------------------------------------------ #

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Trajectory":
        """A new trajectory keeping the given (sorted, unique) indices.

        This is how every compressor materializes its result: the kept
        indices are always a subseries of the original, so the compressed
        trajectory's timestamps are a subset of the original's — the
        property the error notion of Sect. 4.2 relies on.
        """
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise EmptyTrajectoryError("cannot subset to zero points")
        if np.any(idx < 0) or np.any(idx >= len(self)):
            raise IndexError("subset indices out of range")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("subset indices must be strictly increasing")
        return Trajectory(
            self._t[idx].copy(), self._xy[idx].copy(), self.object_id, _validated=True
        )

    def slice_index(self, start: int, stop: int) -> "Trajectory":
        """Points ``start .. stop-1`` as a new trajectory."""
        n = len(self)
        start, stop, _ = slice(start, stop).indices(n)
        if stop - start < 1:
            raise EmptyTrajectoryError(f"empty index slice [{start}:{stop})")
        return Trajectory(
            self._t[start:stop].copy(),
            self._xy[start:stop].copy(),
            self.object_id,
            _validated=True,
        )

    def slice_time(self, t0: float, t1: float) -> "Trajectory":
        """Data points with ``t0 <= t <= t1`` as a new trajectory.

        Only original samples are kept; no boundary points are invented.
        Raises :class:`EmptyTrajectoryError` when no sample falls in the
        window.
        """
        if t1 < t0:
            raise ValueError(f"empty time window [{t0}, {t1}]")
        mask = (self._t >= t0) & (self._t <= t1)
        if not mask.any():
            raise EmptyTrajectoryError(f"no samples inside [{t0}, {t1}]")
        return Trajectory(
            self._t[mask].copy(), self._xy[mask].copy(), self.object_id, _validated=True
        )

    def shifted(self, dt: float = 0.0, dx: float = 0.0, dy: float = 0.0) -> "Trajectory":
        """A rigidly translated copy (time and/or space)."""
        return Trajectory(
            self._t + dt,
            self._xy + np.array([dx, dy]),
            self.object_id,
            _validated=True,
        )

    def with_object_id(self, object_id: str | None) -> "Trajectory":
        """A copy carrying a different object id (arrays are shared)."""
        clone = Trajectory.__new__(Trajectory)
        clone._t = self._t
        clone._xy = self._xy
        clone._cols = self._cols  # same arrays, so the caches are shared
        clone.object_id = object_id
        return clone

    def bbox(self) -> BBox:
        """Tight spatial bounding box of the sample positions."""
        return BBox.of_points(self._xy)

    def resample(self, interval: float) -> "Trajectory":
        """Piecewise-linear resampling at a fixed time interval.

        Produces samples at ``start_time, start_time + interval, ...`` and
        always includes the final timestamp, so the resampled trajectory
        covers the same time interval.

        Args:
            interval: strictly positive sampling period in seconds.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if len(self) == 1:
            return self
        times = np.arange(self.start_time, self.end_time, interval, dtype=float)
        if times.size == 0 or times[-1] < self.end_time:
            times = np.append(times, self.end_time)
        xy = self.positions_at(times)
        return Trajectory(times, xy, self.object_id, _validated=True)


def _validate_arrays(t: np.ndarray, xy: np.ndarray) -> None:
    """Shared validation for the raw-array constructor."""
    if t.ndim != 1:
        raise TrajectoryError(f"t must be 1-D, got shape {t.shape}")
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise TrajectoryError(f"xy must have shape (n, 2), got {xy.shape}")
    if t.shape[0] != xy.shape[0]:
        raise TrajectoryError(
            f"t and xy disagree on length: {t.shape[0]} vs {xy.shape[0]}"
        )
    if t.shape[0] == 0:
        raise EmptyTrajectoryError("a trajectory needs at least one point")
    if not np.all(np.isfinite(t)) or not np.all(np.isfinite(xy)):
        raise TrajectoryError("timestamps and positions must be finite")
    if t.shape[0] > 1 and not np.all(np.diff(t) > 0):
        bad = int(np.argmin(np.diff(t) > 0))
        raise TimestampOrderError(
            f"timestamps must be strictly increasing; violation after index {bad} "
            f"(t[{bad}]={t[bad]}, t[{bad + 1}]={t[bad + 1]})"
        )
