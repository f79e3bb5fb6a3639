"""Naive sequential baselines (paper Sect. 2, refs [11]).

The simplest compression algorithms ignore any relationship between
neighbouring points beyond, at most, their mutual distance:

* :class:`EveryIth` — keep every i-th data point (Tobler-style numerical
  map generalization);
* :class:`DistanceThreshold` — walk the series and drop a point when it is
  closer than a threshold to the last *kept* point.

The paper notes these are computationally efficient but "frequently
eliminate or misrepresent important points such as sharp angles"; they are
included as the floor of the comparison and for the scaling bench.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import Compressor, require_positive
from repro.trajectory.ops import every_ith_indices
from repro.trajectory.trajectory import Trajectory

__all__ = ["EveryIth", "DistanceThreshold"]


class EveryIth(Compressor):
    """Keep every ``step``-th data point (plus the final point).

    Args:
        step: decimation factor; ``step=3`` keeps points 0, 3, 6, ...
    """

    name = "every-ith"
    online = True

    def __init__(self, *, step: int) -> None:
        if not isinstance(step, (int, np.integer)) or step < 1:
            raise ValueError(f"step must be a positive integer, got {step!r}")
        self.step = int(step)

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        return every_ith_indices(len(traj), self.step)


class DistanceThreshold(Compressor):
    """Drop points within ``epsilon`` of the last retained point.

    A sequential, online baseline: it keeps the first point, then scans
    forward retaining a point only when its Euclidean distance to the most
    recently retained point reaches ``epsilon``. The final point is always
    retained.

    Args:
        epsilon: minimum spacing between retained points, in metres.
    """

    name = "distance-threshold"
    online = True

    def __init__(self, *, epsilon: float) -> None:
        self.epsilon = require_positive("epsilon", epsilon)

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        _, x, y = traj.column_lists
        n = len(x)
        keep = [0]
        last_x, last_y = x[0], y[0]
        for i in range(1, n - 1):
            dx = x[i] - last_x
            dy = y[i] - last_y
            if math.sqrt(dx * dx + dy * dy) >= self.epsilon:
                keep.append(i)
                last_x, last_y = x[i], y[i]
        keep.append(n - 1)
        return np.asarray(keep, dtype=int)
