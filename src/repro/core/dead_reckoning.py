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

__all__ = ["DeadReckoner", "DeadReckoning", "dead_reckoning_indices"]


class DeadReckoner:
    """The dead-reckoning decision: an anchor, its velocity, and the test.

    The anchor's velocity is the derived velocity of its *incoming*
    segment (available causally; the very first anchor, having no
    incoming segment, predicts a stationary object). A point is retained
    when its observed position deviates more than ``epsilon`` from the
    anchor's extrapolation; it then becomes the new anchor.
    :func:`dead_reckoning_indices` and
    :class:`~repro.streaming.budget.StreamingDeadReckoning` both decide
    through this class.

    Args:
        epsilon: prediction-error threshold in metres.
        t, x, y: the first anchor.
    """

    __slots__ = ("epsilon", "t", "x", "y", "vx", "vy")

    def __init__(self, epsilon: float, t: float, x: float, y: float) -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        self.t, self.x, self.y = t, x, y
        self.vx = self.vy = 0.0  # first anchor: no incoming segment yet

    def deviates(self, t: float, x: float, y: float) -> bool:
        """Whether the point ``(t, x, y)`` lies more than epsilon from
        the anchor's extrapolation to time ``t``."""
        elapsed = t - self.t
        dx = x - (self.x + self.vx * elapsed)
        dy = y - (self.y + self.vy * elapsed)
        return math.sqrt(dx * dx + dy * dy) > self.epsilon

    def reanchor(
        self, pt: float, px: float, py: float, t: float, x: float, y: float
    ) -> None:
        """Make ``(t, x, y)`` the anchor, moving at the velocity of its
        incoming segment from the point ``(pt, px, py)``."""
        dt = t - pt
        self.t, self.x, self.y = t, x, y
        self.vx = (x - px) / dt
        self.vy = (y - py) / dt


def dead_reckoning_indices(traj: Trajectory, epsilon: float) -> np.ndarray:
    """Retained indices under a dead-reckoning update policy
    (:class:`DeadReckoner` over every interior point).

    Args:
        traj: input trajectory (``len >= 3``; the base class handles
            shorter input).
        epsilon: prediction-error threshold in metres.
    """
    t, x, y = traj.column_lists
    n = len(t)
    reckoner = DeadReckoner(epsilon, t[0], x[0], y[0])
    keep = [0]
    for i in range(1, n - 1):
        if reckoner.deviates(t[i], x[i], y[i]):
            keep.append(i)
            reckoner.reanchor(t[i - 1], x[i - 1], y[i - 1], t[i], x[i], y[i])
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
