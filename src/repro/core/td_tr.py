"""TD-TR: top-down time-ratio compression (paper Sect. 3.2).

TD-TR is the Douglas–Peucker recursion with the discard criterion
replaced by the **time-ratio (synchronized) distance**: an intermediate
point is compared against its temporally synchronized position on the
candidate chord (Eqs. 1–2), not its perpendicular projection. The split
point is the intermediate point of maximum synchronized distance.

This small change is the paper's key move: the retained series then bounds
the *synchronized* deviation of every original point by the threshold,
which is exactly the error that matters for a moving object (and the
quantity Sect. 4.2's α measures). The test suite pins this invariant.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.base import Compressor, require_positive
from repro.core.douglas_peucker import resolve_traversal
from repro.trajectory.trajectory import Trajectory

__all__ = ["synchronized_segment_error", "TDTR"]


def synchronized_segment_error(
    traj: Trajectory, start: int, end: int
) -> tuple[float, int]:
    """TD-TR's segment error: max synchronized distance to the chord.

    Returns ``(max_error, argmax_index)`` over interior points of the
    chord ``start``–``end``.
    """
    return kernels.chord_max(traj, start, end, "synchronized")


class TDTR(Compressor):
    """Top-down time-ratio compressor (the paper's TD-TR).

    Batch algorithm. Guarantees that the synchronized distance of every
    discarded point to the approximation is at most ``epsilon``; by
    convexity this also bounds the continuous max synchronized error of
    the whole approximation.

    Args:
        epsilon: synchronized distance threshold in metres.
        traversal: ``"iterative"`` (default) or ``"recursive"``, as for
            :class:`~repro.core.douglas_peucker.DouglasPeucker`.
    """

    name = "td-tr"

    def __init__(self, *, epsilon: float, traversal: str = "iterative") -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        self.traversal = traversal
        self._traversal = resolve_traversal(traversal)

    def sync_error_bound(self) -> float:
        """TD-TR bounds every point's synchronized deviation by epsilon."""
        return self.epsilon

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        return self._traversal(traj, self.epsilon, synchronized_segment_error)
