"""Grid spatial index over trajectory extents.

A uniform-grid inverted index: each stored trajectory registers the grid
cells its segments pass through; a rectangle query unions the cells it
overlaps and returns the candidate object ids. The store then verifies
candidates exactly against decoded geometry (grid hits are a superset).

A uniform grid beats a tree here because trajectory workloads are
insert-heavy, queries are rectangle-shaped, and city-scale extents at a
few-hundred-metre cell size stay small.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.geometry.bbox import BBox

__all__ = ["GridIndex"]

#: Cell-cover padding in metres. The exact intersection predicates that
#: candidates are verified against do rounded float arithmetic, so a
#: segment whose endpoint sits within rounding distance of a cell
#: boundary can "touch" the neighbouring cell. Padding the insert-time
#: cover by more than that rounding error keeps the index a strict
#: superset of the predicate's answer. 1e-6 m dwarfs double-precision
#: error at any realistic coordinate magnitude (eps * 1e9 m ≈ 2e-7).
_COVER_MARGIN_M = 1e-6


class GridIndex:
    """Uniform-grid inverted index from cells to object ids."""

    def __init__(self, cell_size_m: float = 500.0) -> None:
        if cell_size_m <= 0:
            raise ValueError(f"cell size must be positive, got {cell_size_m}")
        self.cell_size_m = float(cell_size_m)
        self._cells: dict[tuple[int, int], set[str]] = defaultdict(set)
        self._object_cells: dict[str, set[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._object_cells)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._object_cells

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(np.floor(x / self.cell_size_m)), int(np.floor(y / self.cell_size_m)))

    def insert(self, object_id: str, xy: np.ndarray) -> None:
        """Register a trajectory's sample polyline under ``object_id``.

        Re-inserting an id replaces its previous registration.
        """
        self.insert_many([object_id], np.asarray(xy, dtype=float), [0], [len(xy)])

    def insert_many(
        self,
        object_ids: Sequence[str],
        xy: np.ndarray,
        firsts: Sequence[int] | np.ndarray,
        counts: Sequence[int] | np.ndarray,
    ) -> None:
        """Register polyline ``j`` = rows ``firsts[j]:+counts[j]`` of ``xy``
        (at least one) under ``object_ids[j]``, all in one numpy pass.

        A polyline covers the padded bounding-box cells of its segments
        (a lone point: its own cell) — for segments a few cells long at
        most, within a constant factor of an exact supercover walk.
        Re-registering an id, even later in the same call, replaces it.
        """
        firsts = np.asarray(firsts, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        # Segment i joins rows p0 and p0 + 1; a lone point is (p0, p0).
        n_segments = np.maximum(counts - 1, 1)
        owner = np.repeat(np.arange(counts.size), n_segments)
        p0 = np.arange(int(n_segments.sum())) + np.repeat(
            firsts - (n_segments.cumsum() - n_segments), n_segments
        )
        p1 = p0 + (counts[owner] > 1)
        lo = np.minimum(xy[p0], xy[p1]) - _COVER_MARGIN_M
        hi = np.maximum(xy[p0], xy[p1]) + _COVER_MARGIN_M
        c0 = np.floor(lo / self.cell_size_m).astype(np.int64)
        c1 = np.floor(hi / self.cell_size_m).astype(np.int64)
        # Enumerate every segment's cell rectangle; the sets drop repeats.
        height = c1[:, 1] - c0[:, 1] + 1
        size = (c1[:, 0] - c0[:, 0] + 1) * height
        segment = np.repeat(np.arange(size.size), size)
        local = np.arange(int(size.sum())) - np.repeat(size.cumsum() - size, size)
        cx = c0[segment, 0] + local // height[segment]
        cy = c0[segment, 1] + local % height[segment]
        covers: list[set[tuple[int, int]]] = [set() for _ in object_ids]
        for j, cell in zip(owner[segment].tolist(), zip(cx.tolist(), cy.tolist())):
            covers[j].add(cell)
        for object_id, cells in zip(object_ids, covers):
            if object_id in self._object_cells:
                self.remove(object_id)
            for cell in cells:
                self._cells[cell].add(object_id)
            self._object_cells[object_id] = cells

    def remove(self, object_id: str) -> None:
        """Unregister an id; unknown ids are ignored."""
        cells = self._object_cells.pop(object_id, set())
        for cell in cells:
            bucket = self._cells.get(cell)
            if bucket is not None:
                bucket.discard(object_id)
                if not bucket:
                    del self._cells[cell]

    def candidates(self, box: BBox) -> set[str]:
        """Object ids possibly intersecting ``box`` (superset of truth)."""
        c0x, c0y = self._cell_of(box.min_x, box.min_y)
        c1x, c1y = self._cell_of(box.max_x, box.max_y)
        out: set[str] = set()
        for cx in range(c0x, c1x + 1):
            for cy in range(c0y, c1y + 1):
                bucket = self._cells.get((cx, cy))
                if bucket:
                    out |= bucket
        return out

    @property
    def n_cells(self) -> int:
        """Number of occupied grid cells."""
        return len(self._cells)
