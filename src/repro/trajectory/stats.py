"""Descriptive statistics of trajectories.

These are the quantities the paper reports in Table 2 for its ten car
trajectories — duration, average speed, travelled length, net
displacement, and point count — plus the derived per-segment series
(speeds, headings) the SP algorithms and the workload calibration need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.kernels import segment_speeds
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "TrajectoryStats",
    "trajectory_stats",
    "speeds",
    "headings",
    "turning_angles",
    "stop_episodes",
    "DatasetStats",
    "dataset_stats",
    "aggregate_trajectory_stats",
]


@dataclass(frozen=True, slots=True)
class TrajectoryStats:
    """Summary of one trajectory, mirroring the paper's Table 2 rows."""

    n_points: int
    duration_s: float
    length_m: float
    displacement_m: float
    mean_speed_ms: float

    @property
    def mean_speed_kmh(self) -> float:
        """Average travel speed in km/h (the unit Table 2 uses)."""
        return self.mean_speed_ms * 3.6

    @property
    def duration_hms(self) -> str:
        """Duration formatted ``HH:MM:SS`` as printed in Table 2."""
        total = int(round(self.duration_s))
        hours, rem = divmod(total, 3600)
        minutes, seconds = divmod(rem, 60)
        return f"{hours:02d}:{minutes:02d}:{seconds:02d}"


def speeds(traj: Trajectory) -> np.ndarray:
    """Derived per-segment speeds in m/s, shape ``(n - 1,)``."""
    if len(traj) < 2:
        return np.empty(0)
    return segment_speeds(*traj.columns)


def headings(traj: Trajectory) -> np.ndarray:
    """Per-segment headings in radians in ``(-pi, pi]``, shape ``(n - 1,)``.

    Zero-length segments (the object stood still) yield heading 0; use
    :func:`stop_episodes` to find and treat them explicitly.
    """
    if len(traj) < 2:
        return np.empty(0)
    step = np.diff(traj.xy, axis=0)
    return np.arctan2(step[:, 1], step[:, 0])


def turning_angles(traj: Trajectory) -> np.ndarray:
    """Absolute heading change at each interior point, radians in [0, pi].

    This is the angular-change quantity Jenks-style algorithms threshold
    on (paper Sect. 2, ref [14]), and a key shape statistic for
    calibrating the synthetic workload.
    """
    h = headings(traj)
    if h.size < 2:
        return np.empty(0)
    diff = np.diff(h)
    diff = (diff + np.pi) % (2.0 * np.pi) - np.pi
    return np.abs(diff)


def stop_episodes(
    traj: Trajectory, speed_threshold_ms: float = 0.5, min_duration_s: float = 0.0
) -> list[tuple[int, int]]:
    """Maximal index ranges where the object is (nearly) stationary.

    Args:
        traj: the trajectory.
        speed_threshold_ms: segments slower than this count as stopped.
        min_duration_s: episodes shorter than this are dropped.

    Returns:
        List of ``(start_index, end_index)`` pairs: segment indices
        ``start_index .. end_index`` (inclusive) are all below the speed
        threshold. Empty when the trajectory has fewer than two points.
    """
    v = speeds(traj)
    episodes: list[tuple[int, int]] = []
    start: int | None = None
    for i, speed in enumerate(v):
        if speed < speed_threshold_ms:
            if start is None:
                start = i
        elif start is not None:
            episodes.append((start, i - 1))
            start = None
    if start is not None:
        episodes.append((start, v.size - 1))
    if min_duration_s > 0:
        episodes = [
            (a, b)
            for a, b in episodes
            if float(traj.t[b + 1] - traj.t[a]) >= min_duration_s
        ]
    return episodes


def trajectory_stats(traj: Trajectory) -> TrajectoryStats:
    """Compute the Table 2 summary statistics for one trajectory.

    Average speed is total travelled length over total duration (a
    time-weighted average), which is the natural reading of the paper's
    "speed" row.
    """
    n = len(traj)
    if n < 2:
        return TrajectoryStats(n, 0.0, 0.0, 0.0, 0.0)
    step = np.diff(traj.xy, axis=0)
    length = float(np.hypot(step[:, 0], step[:, 1]).sum())
    duration = traj.end_time - traj.start_time
    displacement = float(np.hypot(*(traj.xy[-1] - traj.xy[0])))
    return TrajectoryStats(
        n_points=n,
        duration_s=duration,
        length_m=length,
        displacement_m=displacement,
        mean_speed_ms=length / duration,
    )


@dataclass(frozen=True, slots=True)
class DatasetStats:
    """Mean and standard deviation over a set of trajectories (Table 2)."""

    n_trajectories: int
    duration_mean_s: float
    duration_std_s: float
    speed_mean_kmh: float
    speed_std_kmh: float
    length_mean_km: float
    length_std_km: float
    displacement_mean_km: float
    displacement_std_km: float
    points_mean: float
    points_std: float


def dataset_stats(trajectories: Iterable[Trajectory]) -> DatasetStats:
    """Aggregate Table 2 style statistics over a dataset.

    Equivalent to :func:`aggregate_trajectory_stats` over
    :func:`trajectory_stats` of each trajectory; split that way so the
    per-trajectory half can run on the batch pipeline's executor (the
    ``repro table2 --workers N`` path).
    """
    return aggregate_trajectory_stats(
        trajectory_stats(traj) for traj in trajectories
    )


def aggregate_trajectory_stats(stats: Iterable[TrajectoryStats]) -> DatasetStats:
    """Aggregate per-trajectory summaries into dataset means and stds.

    Standard deviations use the population convention (``ddof=0``); with
    only ten trajectories the paper does not say which it used, and the
    choice does not affect any of the shape comparisons.
    """
    per = list(stats)
    if not per:
        raise ValueError("dataset_stats of an empty dataset")
    durations = np.array([s.duration_s for s in per])
    speeds_kmh = np.array([s.mean_speed_kmh for s in per])
    lengths = np.array([s.length_m for s in per]) / 1000.0
    displacements = np.array([s.displacement_m for s in per]) / 1000.0
    points = np.array([s.n_points for s in per], dtype=float)
    return DatasetStats(
        n_trajectories=len(per),
        duration_mean_s=float(durations.mean()),
        duration_std_s=float(durations.std()),
        speed_mean_kmh=float(speeds_kmh.mean()),
        speed_std_kmh=float(speeds_kmh.std()),
        length_mean_km=float(lengths.mean()),
        length_std_km=float(lengths.std()),
        displacement_mean_km=float(displacements.mean()),
        displacement_std_km=float(displacements.std()),
        points_mean=float(points.mean()),
        points_std=float(points.std()),
    )
