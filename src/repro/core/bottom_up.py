"""Bottom-up merge baseline (paper Sect. 2 taxonomy).

The bottom-up category starts from the finest representation — every
point kept — and greedily merges adjacent segments while some halting
condition holds. Our halting condition is the paper's per-segment one:
stop merging a pair when the merged segment's maximum error would exceed
the threshold. The merge order is cheapest-first (smallest merged error),
maintained in a heap, which is the standard formulation from Keogh et al.

Batch algorithm; like the others it supports both the perpendicular and
the synchronized error criterion.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core import kernels
from repro.core.base import Compressor, require_positive
from repro.trajectory.trajectory import Trajectory

__all__ = ["BottomUp"]


class BottomUp(Compressor):
    """Cheapest-first bottom-up segment merging.

    Args:
        epsilon: maximum per-segment error in metres; a merge whose merged
            segment would exceed this is never performed.
        criterion: ``"perpendicular"`` or ``"synchronized"``.
    """

    name = "bottom-up"

    def __init__(self, *, epsilon: float, criterion: str = "synchronized") -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        if criterion not in ("perpendicular", "synchronized"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion

    def sync_error_bound(self) -> float | None:
        """With the synchronized criterion every performed merge kept the
        merged chord's max SED under epsilon, so the final approximation
        is bounded; the perpendicular criterion bounds nothing
        synchronized."""
        return self.epsilon if self.criterion == "synchronized" else None

    def _merge_cost(self, traj: Trajectory, start: int, end: int) -> float:
        """Max error of the chord ``start``–``end`` over interior points."""
        if end - start < 2:
            return 0.0
        return kernels.chord_max(
            traj.column_lists, start, end, self.criterion, traj.columns
        )[0]

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        n = len(traj)
        # Doubly linked list of retained breakpoints.
        prev = np.arange(-1, n - 1)
        nxt = np.arange(1, n + 1)
        alive = np.ones(n, dtype=bool)
        # Each heap entry proposes removing interior breakpoint ``mid`` by
        # merging its two segments; entries are lazily invalidated by
        # checking neighbours when popped.
        heap: list[tuple[float, int, int, int]] = []
        for mid in range(1, n - 1):
            cost = self._merge_cost(traj, mid - 1, mid + 1)
            heapq.heappush(heap, (cost, mid, mid - 1, mid + 1))
        while heap:
            cost, mid, left, right = heapq.heappop(heap)
            if not alive[mid] or not alive[left] or not alive[right]:
                continue
            if prev[mid] != left or nxt[mid] != right:
                continue  # stale entry: neighbours changed since push
            if cost > self.epsilon:
                break  # cheapest merge already violates: no merge can pass
            alive[mid] = False
            nxt[left] = right
            prev[right] = left
            if left > 0:
                heapq.heappush(
                    heap,
                    (self._merge_cost(traj, prev[left], right), left, prev[left], right),
                )
            if right < n - 1:
                heapq.heappush(
                    heap,
                    (self._merge_cost(traj, left, nxt[right]), right, left, nxt[right]),
                )
        return np.nonzero(alive)[0]
