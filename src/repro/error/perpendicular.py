"""Classic perpendicular-distance error notions (paper Sect. 4.1).

These are the measures line-generalization work traditionally reports:
distances of discarded points to the approximating chord, ignoring time.
The paper discusses them (Fig. 5a) as the baseline against which its
time-synchronous notion is an improvement; we implement them both to
evaluate the spatial algorithms on their own terms and to demonstrate the
bias the paper criticizes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import kernels
from repro.error.synchronized import _check_same_interval
from repro.geometry.distance import point_segment_distances
from repro.exceptions import TrajectoryError
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "perpendicular_deltas",
    "mean_perpendicular_error",
    "max_perpendicular_error",
    "area_error_sampled",
]


def _chord_assignment(original: Trajectory, approx: Trajectory) -> np.ndarray:
    """For each original point, the approx segment index covering its time.

    Requires the approximation's timestamps to be a subseries of the
    original's (which every compressor in this library guarantees).
    """
    if len(approx) < 2:
        raise TrajectoryError("approximation needs >= 2 points")
    _check_same_interval(original, approx)
    idx = np.searchsorted(approx.t, original.t, side="right") - 1
    return np.clip(idx, 0, len(approx) - 2)


def perpendicular_deltas(
    original: Trajectory, approx: Trajectory, to_segment: bool = True
) -> np.ndarray:
    """Perpendicular distance of every original point to its chord.

    Args:
        original: the uncompressed trajectory.
        approx: the compressed trajectory (timestamps a subseries of the
            original's).
        to_segment: measure to the closed segment (default) rather than
            the infinite line; the infinite-line variant matches the
            Douglas–Peucker discard test exactly.

    Returns:
        Distances, shape ``(len(original),)``; retained points contribute
        zero.
    """
    seg = _chord_assignment(original, approx)
    _, px, py = original.columns
    _, ax, ay = approx.columns
    measure = (
        kernels.chord_point_distances if to_segment else kernels.chord_line_distances
    )
    # One sweep over the whole original, each point against its own chord.
    return measure(px, py, ax[seg], ay[seg], ax[seg + 1], ay[seg + 1])


def mean_perpendicular_error(
    original: Trajectory, approx: Trajectory, to_segment: bool = True
) -> float:
    """Average perpendicular distance over original data points.

    The paper notes this is "sensitive to the actual number of data
    points" — it is a per-point average, not a time-weighted one.
    """
    deltas = perpendicular_deltas(original, approx, to_segment)
    return math.fsum(deltas.tolist()) / deltas.size


def max_perpendicular_error(
    original: Trajectory, approx: Trajectory, to_segment: bool = False
) -> float:
    """Maximum perpendicular distance of any original point to its chord.

    With ``to_segment=False`` (infinite-line distance) this is exactly the
    quantity Douglas–Peucker bounds by its threshold, so
    ``max_perpendicular_error(p, ndp(p, eps)) <= eps`` is an invariant the
    test suite pins.
    """
    return float(perpendicular_deltas(original, approx, to_segment).max())


def area_error_sampled(
    original: Trajectory, approx: Trajectory, n_samples: int = 2048
) -> float:
    """Fig. 5a's limit notion: time-integrated perpendicular distance.

    Samples the original path at ``n_samples`` uniform time instants,
    measures each sampled position's distance to its covering approx
    chord, and averages with the trapezoid rule. As the sampling rate
    grows this approaches "the sum over segments of weighted areas between
    original and approximation" that the paper describes.
    """
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    _check_same_interval(original, approx)
    times = np.linspace(original.start_time, original.end_time, n_samples)
    p_pos = original.positions_at(times)
    idx = np.clip(
        np.searchsorted(approx.t, times, side="right") - 1, 0, len(approx) - 2
    )
    dist = np.empty(n_samples)
    for seg in np.unique(idx):
        mask = idx == seg
        dist[mask] = point_segment_distances(
            p_pos[mask], approx.xy[seg], approx.xy[seg + 1]
        )
    duration = original.end_time - original.start_time
    return float(np.trapezoid(dist, times) / duration)
