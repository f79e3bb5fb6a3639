"""Planar and spherical distance primitives.

Every compression algorithm in this library reduces to one of two
point-vs-chord measurements:

* the **perpendicular distance** of a point to the (infinite) line through
  a chord — the classic line-generalization criterion (paper Sect. 2), and
* the **time-ratio (synchronized) distance** — the distance between a point
  and its temporally synchronized position on the chord (paper Sect. 3.2).

This module provides the purely spatial pieces, vectorized over numpy
arrays; the time-ratio computation lives in
:func:`repro.geometry.interpolation.time_ratio_positions` because it needs
timestamps.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "euclidean",
    "euclidean_many",
    "haversine",
    "perpendicular_distance",
    "perpendicular_distances",
    "point_segment_distance",
    "point_segment_distances",
    "EARTH_RADIUS_M",
]

#: Mean Earth radius in metres (IUGG), used by :func:`haversine`.
EARTH_RADIUS_M = 6_371_008.8


def euclidean(p: np.ndarray, q: np.ndarray) -> float:
    """Euclidean distance between two planar points ``p`` and ``q``.

    Args:
        p: array-like of shape ``(2,)``.
        q: array-like of shape ``(2,)``.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.hypot(p[0] - q[0], p[1] - q[1]))


def euclidean_many(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Pairwise (row-by-row) Euclidean distances between two point arrays.

    Args:
        points_a: shape ``(n, 2)``.
        points_b: shape ``(n, 2)`` — same length as ``points_a``.

    Returns:
        Array of shape ``(n,)`` with ``dist(points_a[i], points_b[i])``.
    """
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(
            f"point arrays must have equal shapes, got {a.shape} vs {b.shape}"
        )
    diff = a - b
    return np.hypot(diff[..., 0], diff[..., 1])


def haversine(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in metres between two lon/lat points (degrees).

    Used when ingesting raw GPS (GPX) data to sanity-check the planar
    projection; the compression algorithms themselves run in a local
    planar frame.
    """
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2 - lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0))))


def perpendicular_distance(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Distance from ``point`` to the infinite line through ``a`` and ``b``.

    When ``a == b`` the line degenerates and the plain point distance is
    returned, matching the convention of every Douglas–Peucker
    implementation.
    """
    return float(
        perpendicular_distances(
            np.asarray(point, dtype=float).reshape(1, 2), a, b
        )[0]
    )


def perpendicular_distances(
    points: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Vectorized distance from each row of ``points`` to line ``a``–``b``.

    This is the discard criterion of the spatial algorithms (NDP, NOPW,
    BOPW): a point is removable when its perpendicular distance to the
    candidate chord is below the threshold.

    Args:
        points: shape ``(n, 2)``.
        a: chord start, shape ``(2,)``.
        b: chord end, shape ``(2,)``.

    Returns:
        Array of shape ``(n,)`` of non-negative distances.
    """
    pts = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    norm = np.hypot(ab[0], ab[1])
    if norm == 0.0:
        diff = pts - a
        return np.hypot(diff[:, 0], diff[:, 1])
    # Cross-product magnitude / chord length = perpendicular distance.
    rel = pts - a
    cross = rel[:, 0] * ab[1] - rel[:, 1] * ab[0]
    return np.abs(cross) / norm


def point_segment_distance(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Distance from ``point`` to the closed segment ``a``–``b``."""
    return float(
        point_segment_distances(
            np.asarray(point, dtype=float).reshape(1, 2), a, b
        )[0]
    )


def point_segment_distances(
    points: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Vectorized distance from each row of ``points`` to segment ``a``–``b``.

    Unlike :func:`perpendicular_distances`, positions beyond the segment
    ends are measured to the nearest endpoint. Used by error
    diagnostics, not by the paper's discard tests (which use the
    infinite-line distance, as in the original DP formulation).
    """
    pts = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        diff = pts - a
        return np.hypot(diff[:, 0], diff[:, 1])
    u = ((pts - a) @ ab) / denom
    u = np.clip(u, 0.0, 1.0)
    proj = a + u[:, None] * ab
    diff = pts - proj
    return np.hypot(diff[:, 0], diff[:, 1])
