"""Segment-rectangle intersection (Liang–Barsky clipping).

The exact predicate behind window queries: a trajectory passes through
a query rectangle iff at least one of its segments intersects it, even
when no sample point falls inside. A segment never meets a box its own
closed bbox misses, so any bbox prefilter (the store's catalog, the
partition summaries) is a true superset of this predicate.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.bbox import BBox

__all__ = ["segment_intersects_bbox", "clip_segment_to_bbox"]


def clip_segment_to_bbox(
    p0: np.ndarray, p1: np.ndarray, box: BBox
) -> tuple[float, float] | None:
    """Parameter interval of segment ``p0``–``p1`` inside ``box``.

    Liang–Barsky: returns ``(u_enter, u_exit)`` with
    ``0 <= u_enter <= u_exit <= 1`` when the segment intersects the closed
    rectangle, else ``None``.
    """
    # Plain Python floats: near-zero deltas divide to +-inf silently
    # (numpy scalars would emit overflow warnings), and inf parameters
    # clamp correctly below.
    x0, y0, x1, y1 = float(p0[0]), float(p0[1]), float(p1[0]), float(p1[1])
    # The clipping divisions round: without this test a segment ending
    # an ulp short of the box could still be reported as a hit.
    if (
        max(x0, x1) < box.min_x
        or min(x0, x1) > box.max_x
        or max(y0, y1) < box.min_y
        or min(y0, y1) > box.max_y
    ):
        return None
    u0, u1 = 0.0, 1.0
    for delta, low, high, origin in (
        (x1 - x0, box.min_x, box.max_x, x0),
        (y1 - y0, box.min_y, box.max_y, y0),
    ):
        if delta == 0.0:
            if origin < low or origin > high:
                return None
            continue
        t_low = (low - origin) / delta
        t_high = (high - origin) / delta
        if t_low > t_high:
            t_low, t_high = t_high, t_low
        u0 = max(u0, t_low)
        u1 = min(u1, t_high)
        if u0 > u1:
            return None
    return u0, u1


def segment_intersects_bbox(p0: np.ndarray, p1: np.ndarray, box: BBox) -> bool:
    """Whether the closed segment ``p0``–``p1`` meets the closed box."""
    return clip_segment_to_bbox(p0, p1, box) is not None
