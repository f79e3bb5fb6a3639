"""Fixed-size sliding-window baseline (paper Sect. 2 taxonomy).

The paper's four-way classification (after Keogh et al. [10]) includes a
*sliding window* category: a window of fixed size moves over the series
and compression happens only inside the window. This baseline partitions
the series into consecutive windows of ``window_size`` points and, inside
each window, keeps the boundary points plus any interior point whose
error against the window's chord exceeds the threshold — a bounded-memory,
online-capable scheme that trades quality for a hard O(window) space
bound.

Both the perpendicular and the synchronized criterion are supported so the
category can be compared on equal terms with the paper's classes.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.base import Compressor, require_positive
from repro.trajectory.trajectory import Trajectory

__all__ = ["SlidingWindow"]


class SlidingWindow(Compressor):
    """Windowed compression with a fixed point budget per window.

    Args:
        epsilon: error threshold in metres.
        window_size: number of points per window (``>= 3``).
        criterion: ``"perpendicular"`` or ``"synchronized"``.
    """

    name = "sliding-window"
    online = True

    def __init__(
        self,
        *,
        epsilon: float,
        window_size: int = 32,
        criterion: str = "perpendicular",
    ) -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        if window_size < 3:
            raise ValueError(f"window_size must be >= 3, got {window_size}")
        if criterion not in ("perpendicular", "synchronized"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.window_size = int(window_size)
        self.criterion = criterion

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        n = len(traj)
        keep = np.zeros(n, dtype=bool)
        keep[0] = keep[n - 1] = True
        start = 0
        while start < n - 1:
            end = min(start + self.window_size - 1, n - 1)
            keep[start] = keep[end] = True
            if end - start >= 2:
                keep[
                    kernels.chord_indices_above(
                        traj, start, end, self.epsilon, self.criterion
                    )
                ] = True
            start = end
        return np.nonzero(keep)[0]
