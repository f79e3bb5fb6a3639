"""Great-circle distance for lon/lat input.

The compression algorithms and error notions measure planar distances
through :mod:`repro.core.kernels`; this module holds the spherical
distance used when ingesting raw GPS fixes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["haversine", "EARTH_RADIUS_M"]

#: Mean Earth radius in metres (IUGG), used by :func:`haversine`.
EARTH_RADIUS_M = 6_371_008.8


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
