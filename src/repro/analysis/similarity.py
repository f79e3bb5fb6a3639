"""Trajectory similarity measures for pattern analysis.

The paper's introduction frames the whole effort as providing "tools to
study, analyse and understand" movement patterns; its Sect. 4 error
notion is explicitly related to Nanni's spatio-temporal clustering
distance [18]. This module turns that error notion into a general
*similarity measure between any two trajectories* (not just an original
and its compression), plus a purely spatial route-shape distance for
comparisons that should ignore timing:

* :func:`mean_synchronized_distance` — the time-weighted average distance
  between two objects travelling synchronously over their overlapping
  time interval (α generalized to arbitrary pairs);
* :func:`max_synchronized_distance` — the corresponding maximum;
* :func:`hausdorff_distance` — symmetric route-shape distance on sampled
  positions, blind to time;
* :func:`pairwise_matrix` — the distance matrix clustering consumes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core import kernels
from repro.exceptions import TrajectoryError
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "overlap_interval",
    "mean_synchronized_distance",
    "max_synchronized_distance",
    "hausdorff_distance",
    "pairwise_matrix",
]


def overlap_interval(a: Trajectory, b: Trajectory) -> tuple[float, float]:
    """The time interval both trajectories cover.

    Raises:
        TrajectoryError: when the trajectories do not overlap in time (a
            synchronized comparison is then meaningless).
    """
    t0 = max(a.start_time, b.start_time)
    t1 = min(a.end_time, b.end_time)
    if t1 <= t0:
        raise TrajectoryError(
            f"trajectories do not overlap in time: "
            f"[{a.start_time}, {a.end_time}] vs [{b.start_time}, {b.end_time}]"
        )
    return t0, t1


def _evaluation_grid(a: Trajectory, b: Trajectory) -> np.ndarray:
    """Merged breakpoint grid over the overlap interval."""
    t0, t1 = overlap_interval(a, b)
    inner = np.union1d(a.t, b.t)
    inner = inner[(inner > t0) & (inner < t1)]
    return np.concatenate([[t0], inner, [t1]])


def mean_synchronized_distance(a: Trajectory, b: Trajectory) -> float:
    """Time-weighted mean distance between two synchronously moving objects.

    Evaluated in closed form over the overlap interval; both trajectories
    are piecewise linear, so between merged breakpoints the difference
    vector is linear and the per-interval integral of Sect. 4.2 applies.
    Symmetric; zero iff the objects coincide throughout the overlap.
    """
    grid = _evaluation_grid(a, b)
    deltas = a.positions_at(grid) - b.positions_at(grid)
    total = kernels.distance_integral(deltas, np.diff(grid))
    return total / float(grid[-1] - grid[0])


def max_synchronized_distance(a: Trajectory, b: Trajectory) -> float:
    """Maximum distance between the two objects over the overlap interval.

    Exact (the distance is convex between merged breakpoints).
    """
    grid = _evaluation_grid(a, b)
    diff = a.positions_at(grid) - b.positions_at(grid)
    return float(np.hypot(diff[:, 0], diff[:, 1]).max())


def hausdorff_distance(a: Trajectory, b: Trajectory, n_samples: int = 256) -> float:
    """Symmetric Hausdorff distance between the two *routes*.

    Samples both paths uniformly in time and measures the classic
    max-min point-set distance: how far the most isolated point of one
    route is from the other route. Ignores timing entirely — two objects
    driving the same road an hour apart have Hausdorff distance ~0 but a
    large synchronized distance.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")

    def sample(traj: Trajectory) -> np.ndarray:
        if len(traj) == 1:
            return traj.xy.copy()
        times = np.linspace(traj.start_time, traj.end_time, n_samples)
        return traj.positions_at(times)

    pa = sample(a)
    pb = sample(b)
    # Pairwise distances (n_samples is small; the n^2 matrix is fine).
    diff = pa[:, None, :] - pb[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def pairwise_matrix(
    trajectories: Sequence[Trajectory],
    metric: Callable[[Trajectory, Trajectory], float] = mean_synchronized_distance,
) -> np.ndarray:
    """Symmetric pairwise distance matrix under ``metric``.

    Args:
        trajectories: at least two trajectories.
        metric: any symmetric distance on trajectories; defaults to the
            synchronized mean distance.

    Returns:
        Array of shape ``(n, n)`` with zero diagonal.
    """
    n = len(trajectories)
    if n < 2:
        raise ValueError("need at least two trajectories")
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            distance = float(metric(trajectories[i], trajectories[j]))
            out[i, j] = distance
            out[j, i] = distance
    return out
