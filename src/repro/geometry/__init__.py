"""Planar geometry substrate: boxes, clipping, projection, interpolation.

Bounding boxes and Liang–Barsky clipping serve the store and query
layers, :class:`LocalProjection` and :func:`haversine` the GPS ingest
path, and :func:`time_ratio_position` (paper Eqs. 1–2 at one instant)
:meth:`~repro.trajectory.Trajectory.position_at`. The point-to-chord
distances and derived speeds that the compression algorithms and error
notions test live in :mod:`repro.core.kernels`.
"""

from repro.geometry.bbox import BBox
from repro.geometry.distance import EARTH_RADIUS_M, haversine
from repro.geometry.interpolation import time_ratio_position
from repro.geometry.projection import LocalProjection

__all__ = [
    "BBox",
    "EARTH_RADIUS_M",
    "LocalProjection",
    "haversine",
    "time_ratio_position",
]
