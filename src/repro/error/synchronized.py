"""The paper's time-synchronous error notion (Sect. 4.2), in closed form.

Given an original trajectory ``p`` and an approximation ``a``, the quality
measure is the **average distance between the original and the
approximated object travelling synchronously** over the shared time
interval::

    α(p, a) = (1 / (T_end - T_start)) ∫ dist(loc(p, t), loc(a, t)) dt

The paper evaluates the integral per original segment (its Eq. 3–5) with a
case analysis on the polynomial under the square root. We implement the
same mathematics in a numerically safer parametrization: on any interval
where both ``p`` and ``a`` are linear, the difference vector
``d(u) = loc(p) - loc(a)`` is itself linear in the normalized time
``u ∈ [0, 1]``, so with ``v0 = d(0)``, ``v1 = d(1)`` and ``w = v1 - v0``::

    dist(u)² = A u² + B u + C,   A = |w|²,  B = 2 v0·w,  C = |v0|²

and the paper's three cases become:

* ``A = 0`` — the approximation is a translated copy of the segment
  (paper: *c1 = 0*); the distance is the constant ``sqrt(C)``.
* ``4AC - B² = 0`` — the difference vectors are parallel (paper: *δ ratios
  respected*, subsuming *segments share start/end point*); the integrand
  is a piecewise-linear ``sqrt(A)·|u - r|``.
* ``4AC - B² > 0`` — the general case, solved with the ``arcsinh``
  antiderivative exactly as in the paper.

By Cauchy–Schwarz the discriminant ``4AC - B²`` is never negative; small
negative values from floating-point round-off are clamped.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.kernels import segment_mean_distance_py as segment_mean_distance
from repro.exceptions import TrajectoryError
from repro.trajectory.ops import merge_grids
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "segment_mean_distance",
    "mean_synchronized_error",
    "max_synchronized_error",
    "synchronized_deltas",
    "mean_synchronized_error_sampled",
]


def _interval_tolerance(original: Trajectory) -> float:
    """Allowed start/end mismatch between original and approximation.

    Codec round trips quantize timestamps (default quantum 1 ms), so an
    approximation decoded from storage may disagree with the raw data by
    a sub-millisecond amount; treating that as a different interval would
    make the error notion unusable on exactly the comparisons users want.
    """
    duration = original.end_time - original.start_time
    return 1e-9 + 1e-5 * max(duration, 1.0)


def _check_same_interval(original: Trajectory, approx: Trajectory) -> None:
    if len(original) < 2:
        raise TrajectoryError("error notion needs an original with >= 2 points")
    tol = _interval_tolerance(original)
    if (
        abs(approx.start_time - original.start_time) > tol
        or abs(approx.end_time - original.end_time) > tol
    ):
        raise TrajectoryError(
            "approximation must cover the original's time interval: "
            f"[{original.start_time}, {original.end_time}] vs "
            f"[{approx.start_time}, {approx.end_time}]"
        )


def _synchronized_positions(
    original: Trajectory, approx: Trajectory, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of both trajectories over ``grid``, clamping each query
    into the respective trajectory's own (tolerance-aligned) domain."""
    p_times = np.clip(grid, original.start_time, original.end_time)
    a_times = np.clip(grid, approx.start_time, approx.end_time)
    return original.positions_at(p_times), approx.positions_at(a_times)


def synchronized_deltas(original: Trajectory, approx: Trajectory) -> np.ndarray:
    """Synchronized distances at every *original* timestamp.

    ``out[i] = dist(p[i], loc(a, t_i))`` — the per-point view of the error
    the spatiotemporal algorithms bound. Shape ``(len(original),)``.
    """
    _check_same_interval(original, approx)
    _, approx_positions = _synchronized_positions(original, approx, original.t)
    dx, dy = (original.xy - approx_positions).T
    return np.sqrt(dx * dx + dy * dy)


def mean_synchronized_error(original: Trajectory, approx: Trajectory) -> float:
    """The paper's α(p, a): time-weighted mean synchronized distance.

    Exact (closed form), assuming both trajectories are piecewise linear.
    Works for any approximation covering the same time interval — when
    the approximation's timestamps are a subseries of the original's (the
    compression case) the merged evaluation grid is just the original's
    timestamps, exactly the paper's Eq. 3.

    Returns:
        Average distance in metres over the whole time interval.
    """
    _check_same_interval(original, approx)
    grid = merge_grids(original.t, approx.t)
    p_pos, a_pos = _synchronized_positions(original, approx, grid)
    total = kernels.distance_integral(p_pos - a_pos, np.diff(grid))
    duration = float(grid[-1] - grid[0])
    if duration == 0.0:
        raise TrajectoryError("error notion undefined on a zero-length interval")
    return total / duration


def max_synchronized_error(original: Trajectory, approx: Trajectory) -> float:
    """Maximum synchronized distance over the whole time interval.

    Exact: on each interval of the merged time grid both paths are linear,
    so the distance is convex in time and attains its maximum at grid
    points.
    """
    _check_same_interval(original, approx)
    grid = merge_grids(original.t, approx.t)
    p_pos, a_pos = _synchronized_positions(original, approx, grid)
    dx, dy = (p_pos - a_pos).T
    return float(np.sqrt(dx * dx + dy * dy).max())


def mean_synchronized_error_sampled(
    original: Trajectory, approx: Trajectory, n_samples: int = 2048
) -> float:
    """Numeric cross-check of :func:`mean_synchronized_error`.

    Trapezoid rule over ``n_samples`` uniform time samples. Converges to
    the closed form as ``n_samples`` grows; used by the test suite and the
    error-evaluation ablation bench, not by production code paths.
    """
    _check_same_interval(original, approx)
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    times = np.linspace(original.start_time, original.end_time, n_samples)
    p_pos, a_pos = _synchronized_positions(original, approx, times)
    diff = p_pos - a_pos
    dist = np.hypot(diff[:, 0], diff[:, 1])
    duration = original.end_time - original.start_time
    if duration == 0.0:
        raise TrajectoryError("error notion undefined on a zero-length interval")
    return float(np.trapezoid(dist, times) / duration)
