"""OPW-TR: opening-window time-ratio compression (paper Sect. 3.2).

The opening-window driver of Sect. 2.2 with the discard criterion replaced
by the time-ratio (synchronized) distance of Eqs. 1–2 — the online member
of the paper's *time ratio* algorithm class. The paper's experiments
(Fig. 9) show its error is both far lower than NOPW's and nearly flat in
the threshold, which lets applications pick generous thresholds for better
compression without losing much accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Compressor, require_positive
from repro.core.opening_window import BreakStrategy, OpeningWindow
from repro.trajectory.trajectory import Trajectory

__all__ = ["OPWTR"]


class OPWTR(Compressor):
    """Opening-window time-ratio compressor (the paper's OPW-TR).

    Online algorithm. With the default NOPW-style break point the
    synchronized deviation of every discarded point from the final
    approximation is bounded by ``epsilon`` (each emitted segment was
    fully validated when its end point was the window float).

    Args:
        epsilon: synchronized distance threshold in metres.
        strategy: break-point choice, ``"violating"`` (paper default) or
            ``"before-float"`` for the BOPW-style variant.
    """

    name = "opw-tr"
    online = True

    def __init__(
        self, *, epsilon: float, strategy: BreakStrategy = "violating"
    ) -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        self.strategy = strategy

    def sync_error_bound(self) -> float:
        """Each emitted segment was fully validated against its own chord
        when its end point was the window float, so epsilon bounds the
        max synchronized error (under either break strategy)."""
        return self.epsilon

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        return OpeningWindow(
            traj.column_lists,
            traj.columns,
            criterion="synchronized",
            epsilon=self.epsilon,
            strategy=self.strategy,
        ).indices()
