"""Dead-reckoning compression (the paper's future-work direction).

The paper closes by noting that "other measurements such as momentaneous
speed and direction values are sometimes available" and that "other, more
advanced, interpolation techniques and consequently other error notions
can be defined". Dead reckoning is the classic realization of that idea
in moving-object databases: a retained point carries a *velocity*, the
reconstruction extrapolates ``pos + v * (t - t_keep)`` instead of
interpolating a chord, and a new point is retained exactly when the
observed position drifts more than a threshold from the prediction.

Two practical properties distinguish it from the opening-window family:

* it is **O(N)** — each point is compared once against the current
  prediction, no window rescans — so it suits the weakest trackers;
* its decision is **causal**: the retained point is chosen before any
  later data is seen, which is why fleet-tracking protocols use it for
  *update policies* (only transmit when prediction breaks).

The cost is accuracy per retained point: a chord fitted with hindsight
(OPW-TR) beats a forward extrapolation, which the dead-reckoning ablation
bench quantifies.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import Compressor, require_positive
from repro.trajectory.trajectory import Trajectory

__all__ = ["DeadReckoning", "dead_reckoning_indices"]


def dead_reckoning_indices(traj: Trajectory, epsilon: float) -> np.ndarray:
    """Retained indices under a dead-reckoning update policy.

    The anchor's velocity is the derived velocity of its *incoming*
    segment (available causally; the very first anchor, having no
    incoming segment, predicts a stationary object). A point is retained
    when its observed position deviates more than ``epsilon`` from the
    anchor's extrapolation; it then becomes the new anchor.

    Args:
        traj: input trajectory (``len >= 3``; the base class handles
            shorter input).
        epsilon: prediction-error threshold in metres.
    """
    epsilon = require_positive("epsilon", epsilon)
    t, x, y = traj.column_lists
    n = len(t)
    keep = [0]
    anchor = 0
    vx = vy = 0.0  # first anchor: no incoming segment yet
    for i in range(1, n - 1):
        elapsed = t[i] - t[anchor]
        dx = x[i] - (x[anchor] + vx * elapsed)
        dy = y[i] - (y[anchor] + vy * elapsed)
        if math.sqrt(dx * dx + dy * dy) > epsilon:
            keep.append(i)
            anchor = i
            dt = t[i] - t[i - 1]
            vx = (x[i] - x[i - 1]) / dt
            vy = (y[i] - y[i - 1]) / dt
    keep.append(n - 1)
    return np.asarray(keep, dtype=int)


class DeadReckoning(Compressor):
    """O(N) online compression via velocity extrapolation.

    Args:
        epsilon: prediction-error threshold in metres. Note that unlike
            the chord-based algorithms the *reconstruction* here is still
            the piecewise-linear path through retained points, so the
            synchronized error of the result is not bounded by
            ``epsilon`` — the threshold bounds the transmitter-side
            prediction error, matching how update policies are specified.
    """

    name = "dead-reckoning"
    online = True

    def __init__(self, *, epsilon: float) -> None:
        self.epsilon = require_positive("epsilon", epsilon)

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        return dead_reckoning_indices(traj, self.epsilon)
