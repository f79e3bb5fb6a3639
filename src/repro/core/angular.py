"""Angular-change baseline (paper Sect. 2, Jenks [14]).

Straight stretches are over-represented by the naive sequential baselines;
Jenks' remedy thresholds on the *angular change* between each three
consecutive data points: a point on a near-straight run is droppable, a
point at a sharp turn must stay.

This implementation combines the angular criterion with a minimum-spacing
criterion (both thresholds optional), matching the paper's remark that
small angle differences can be "used as another discarding condition" on
top of distance-based elimination.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Compressor, require_positive
from repro.trajectory.trajectory import Trajectory

__all__ = ["AngularChange"]


class AngularChange(Compressor):
    """Retain points whose local turning angle exceeds a threshold.

    Jenks' criterion examines "the angular change between each three
    consecutive data points": a point where the trace turns by more than
    ``max_angle_rad`` (measured between its incoming and outgoing original
    segments) is a critical point and is retained; points on near-straight
    runs are discarded. An optional ``max_gap_m`` keeps occasional anchor
    points on long straight runs so the approximation cannot drift
    arbitrarily far from a noisy-but-straight trace.

    Args:
        max_angle_rad: angular-change threshold in radians, in
            ``(0, pi]``.
        max_gap_m: optional spatial cap on how far apart retained points
            may be; ``None`` disables it.
    """

    name = "angular"
    online = True

    def __init__(
        self,
        *,
        max_angle_rad: float,
        max_gap_m: float | None = None,
    ) -> None:
        self.max_angle_rad = require_positive("max_angle_rad", max_angle_rad)
        if self.max_angle_rad > np.pi:
            raise ValueError(
                f"max_angle_rad must be at most pi, got {self.max_angle_rad}"
            )
        self.max_gap_m = (
            None if max_gap_m is None else require_positive("max_gap_m", max_gap_m)
        )

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        n = len(traj)
        step = np.diff(traj.xy, axis=0)
        lengths = np.hypot(step[:, 0], step[:, 1])
        headings = np.arctan2(step[:, 1], step[:, 0])
        keep = [0]
        last_kept = 0
        for i in range(1, n - 1):
            # Turning angle at point i between segments (i-1, i) and
            # (i, i+1); a zero-length segment carries no direction, so the
            # point cannot register a turn.
            if lengths[i - 1] == 0.0 or lengths[i] == 0.0:
                turned = 0.0
            else:
                diff = headings[i] - headings[i - 1]
                turned = abs((diff + np.pi) % (2.0 * np.pi) - np.pi)
            gap = float(np.hypot(*(traj.xy[i] - traj.xy[last_kept])))
            too_far = self.max_gap_m is not None and gap > self.max_gap_m
            if turned > self.max_angle_rad or too_far:
                keep.append(i)
                last_kept = i
        keep.append(n - 1)
        return np.asarray(keep, dtype=int)
