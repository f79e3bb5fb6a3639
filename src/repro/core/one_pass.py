"""One-pass error-bounded SED compression (OPERB- and CISED-style).

The opening-window algorithms re-scan their open window on every new
fix, which makes the worst case quadratic. The one-pass literature
(OPERB, arXiv:1702.05597; CISED, arXiv:1801.05360) removes the re-scan
by tracking a *feasibility region in velocity space*: the synchronized
distance of a dropped point ``j`` under a chord leaving the anchor ``A``
with end velocity ``v`` is ``dt_j * |v - c_j|`` with
``c_j = (P_j - A) / dt_j``, so ``SED_j <= epsilon`` exactly when ``v``
lies in the disc of center ``c_j`` and radius ``epsilon / dt_j``. A
candidate end point is acceptable iff its own velocity ``c_i`` lies in
the intersection of the discs of every point dropped so far — a region
each algorithm maintains in O(1) space:

* :class:`RectangleRegion` (our OPERB adaptation) intersects the
  *inscribed axis-aligned squares* of the discs, keeping an exact
  axis-aligned rectangle — four floats, constant-time updates. This is
  OPERB's one-pass directed-bound idea transplanted from perpendicular
  to synchronized distance, so it is directly comparable to OPW-TR.
* :class:`PolygonRegion` (CISED-style) intersects *inscribed regular
  m-gons*. Every inscribed m-gon uses the same ``m`` outward normal
  directions, so the running intersection is always the region cut by
  those ``m`` half-planes — ``m`` offsets, updated with ``m`` minimums
  per clip. A tighter under-approximation of the true disc
  intersection (CISED's spatiotemporal cone) than the rectangle, so it
  drops more points for the same bound.

Both regions under-approximate the exact disc intersection, which can
only cost compression, never the epsilon guarantee: any accepted end
velocity lies inside every dropped point's disc. The streaming forms in
:mod:`repro.streaming.one_pass` run the identical state machine push-by-
push; the batch classes here replay it over a stored trajectory with
the same floating-point expressions, so streaming and batch select
identical indices.
"""

from __future__ import annotations

import math
from typing import Callable, Protocol

import numpy as np

from repro.core.base import Compressor, require_positive
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "OPERB",
    "CISED",
    "RectangleRegion",
    "PolygonRegion",
    "one_pass_indices",
]

#: Half-side of the axis-aligned square inscribed in a unit disc.
_SQUARE_HALF = math.sqrt(0.5)


class FeasibleRegion(Protocol):
    """Velocity-space region protocol shared by the one-pass algorithms."""

    def contains(self, px: float, py: float) -> bool: ...

    def clip(self, cx: float, cy: float, r: float) -> None: ...

    @property
    def state_size(self) -> int: ...


class RectangleRegion:
    """Axis-aligned rectangle under-approximating a disc intersection.

    Initialized to the inscribed square of one disc; each :meth:`clip`
    intersects with another disc's inscribed square. Exact (the
    intersection of axis-aligned rectangles is a rectangle), O(1) state:
    four floats. An empty region is represented by inverted bounds,
    which makes :meth:`contains` vacuously false.
    """

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, cx: float, cy: float, r: float) -> None:
        h = r * _SQUARE_HALF
        self.min_x = cx - h
        self.max_x = cx + h
        self.min_y = cy - h
        self.max_y = cy + h

    def contains(self, px: float, py: float) -> bool:
        """True iff ``(px, py)`` lies in the rectangle (empty → False)."""
        return (
            self.min_x <= px <= self.max_x and self.min_y <= py <= self.max_y
        )

    def clip(self, cx: float, cy: float, r: float) -> None:
        """Intersect with the inscribed square of disc ``(cx, cy, r)``."""
        h = r * _SQUARE_HALF
        self.min_x = max(self.min_x, cx - h)
        self.max_x = min(self.max_x, cx + h)
        self.min_y = max(self.min_y, cy - h)
        self.max_y = min(self.max_y, cy + h)

    @property
    def state_size(self) -> int:
        """Number of floats held — constant by construction."""
        return 4


def _polygon_normals(m: int) -> tuple[tuple[float, float], ...]:
    """Outward edge normals of the inscribed regular ``m``-gon, cached.

    The inscribed ``m``-gon of *any* disc ``(c, r)`` has edges with
    outward normal at angle ``(2k+1)*pi/m`` and offset
    ``n_k . c + r*cos(pi/m)`` — the normal directions do not depend on
    the disc, only on ``m``.
    """
    normals = _NORMALS_CACHE.get(m)
    if normals is None:
        step = math.pi / m
        normals = tuple(
            (math.cos((2 * k + 1) * step), math.sin((2 * k + 1) * step))
            for k in range(m)
        )
        _NORMALS_CACHE[m] = normals
    return normals


_NORMALS_CACHE: dict[int, tuple[tuple[float, float], ...]] = {}


class PolygonRegion:
    """Intersection of inscribed regular ``m``-gons as half-plane offsets.

    Every inscribed ``m``-gon shares the same ``m`` outward normal
    directions (angle ``(2k+1)*pi/m``), so the running intersection is
    *exactly* ``{v : n_k . v <= d_k}`` for ``m`` scalar offsets
    ``d_k`` — intersecting a further disc's inscribed ``m``-gon is
    ``m`` minimum updates (``d_k = min(d_k, n_k . c + r*cos(pi/m))``)
    and membership is ``m`` dot products. No vertex bookkeeping, no
    clipping loss: ``m`` floats of state, O(m) per operation, and the
    represented region is the exact ``m``-gon intersection (an empty
    region simply makes :meth:`contains` false for every point).
    """

    __slots__ = ("m", "_normals", "_apothem_scale", "_offsets")

    def __init__(self, cx: float, cy: float, r: float, m: int = 16) -> None:
        self.m = m
        self._normals = _polygon_normals(m)
        self._apothem_scale = math.cos(math.pi / m)
        apothem = r * self._apothem_scale
        self._offsets = [
            nx * cx + ny * cy + apothem for nx, ny in self._normals
        ]

    def contains(self, px: float, py: float) -> bool:
        """True iff ``(px, py)`` satisfies all ``m`` half-planes
        (an empty region satisfies none → False)."""
        for (nx, ny), d in zip(self._normals, self._offsets):
            if nx * px + ny * py > d:
                return False
        return True

    def clip(self, cx: float, cy: float, r: float) -> None:
        """Intersect with the inscribed ``m``-gon of disc ``(cx, cy, r)``
        — ``m`` offset minimums, exact in this representation."""
        apothem = r * self._apothem_scale
        offsets = self._offsets
        for k, (nx, ny) in enumerate(self._normals):
            d = nx * cx + ny * cy + apothem
            if d < offsets[k]:
                offsets[k] = d

    @property
    def state_size(self) -> int:
        """Number of floats held — exactly ``m``, constant for the life
        of the region."""
        return self.m


def one_pass_indices(
    n: int,
    circle: Callable[[int, int], tuple[float, float, float]],
    region_factory: Callable[[float, float, float], FeasibleRegion],
) -> np.ndarray:
    """Replay the one-pass state machine over ``n`` stored points.

    ``circle(anchor, i)`` returns the velocity-space disc ``(cx, cy, r)``
    of point ``i`` relative to ``anchor``. The machine mirrors the
    streaming compressors fix for fix: every point becomes the buffered
    candidate end; a candidate whose velocity falls outside the current
    feasibility region closes the previous candidate's segment and
    re-anchors there.
    """
    kept = [0]
    anchor = 0
    last = -1
    region: FeasibleRegion | None = None
    for i in range(1, n):
        cx, cy, r = circle(anchor, i)
        if last < 0:
            region = region_factory(cx, cy, r)
        elif region is not None and region.contains(cx, cy):
            region.clip(cx, cy, r)
        else:
            kept.append(last)
            anchor = last
            cx, cy, r = circle(anchor, i)
            region = region_factory(cx, cy, r)
        last = i
    kept.append(n - 1)
    return np.asarray(kept, dtype=int)


def _make_circle_fn(
    traj: Trajectory, epsilon: float
) -> Callable[[int, int], tuple[float, float, float]]:
    """Velocity-space disc ``(cx, cy, r)`` of point ``i`` relative to ``anchor``.

    The same expressions, in the same order, as the streaming
    compressors' disc (:mod:`repro.streaming.one_pass`). The region
    update that consumes each disc is inherently sequential, so the
    replay is one scalar loop.
    """
    t, x, y = traj.column_lists

    def circle(anchor: int, i: int) -> tuple[float, float, float]:
        dt = t[i] - t[anchor]
        return (x[i] - x[anchor]) / dt, (y[i] - y[anchor]) / dt, epsilon / dt

    return circle


class OPERB(Compressor):
    """One-pass error-bounded SED compressor (OPERB adaptation).

    Online algorithm, O(n) time and O(1) working state per trajectory:
    the feasibility region is an axis-aligned rectangle (four floats)
    intersecting the inscribed squares of the velocity-space discs —
    OPERB's one-pass directed-bound idea carried from perpendicular to
    synchronized distance. The max synchronized error of every discarded
    point is bounded by ``epsilon``; the square under-approximation
    costs some compression relative to the exact disc intersection.

    Args:
        epsilon: synchronized distance threshold in metres.
    """

    name = "operb"
    online = True

    def __init__(self, *, epsilon: float) -> None:
        self.epsilon = require_positive("epsilon", epsilon)

    def sync_error_bound(self) -> float:
        """Accepted end velocities stay inside every dropped point's
        disc, so epsilon bounds the max synchronized error."""
        return self.epsilon

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        circle = _make_circle_fn(traj, self.epsilon)
        return one_pass_indices(len(traj), circle, RectangleRegion)


class CISED(Compressor):
    """One-pass SED compressor with a polygonal cone (CISED-style).

    Online algorithm, O(n * m) time and O(1) working state: the
    feasibility region is the intersection of inscribed regular
    ``m``-gons of the velocity-space discs, held as ``m`` half-plane
    offsets — CISED's spatiotemporal-cone intersection in its
    strong-simplification form. A larger ``m`` approximates the exact
    disc intersection more tightly (better compression) at
    proportionally higher per-fix cost.

    Args:
        epsilon: synchronized distance threshold in metres.
        m: polygon edge count per disc (>= 3; default 16).
    """

    name = "cised"
    online = True

    def __init__(self, *, epsilon: float, m: int = 16) -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        self.m = int(m)
        if self.m < 3:
            raise ValueError(f"m must be >= 3, got {m}")

    def sync_error_bound(self) -> float:
        """Accepted end velocities stay inside every dropped point's
        disc, so epsilon bounds the max synchronized error."""
        return self.epsilon

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        circle = _make_circle_fn(traj, self.epsilon)
        m = self.m

        def factory(cx: float, cy: float, r: float) -> PolygonRegion:
            return PolygonRegion(cx, cy, r, m)

        return one_pass_indices(len(traj), circle, factory)
