"""Opening-window algorithms (paper Sect. 2.2).

An opening-window (OW) algorithm anchors a segment start and grows the
window — the float moves one point up the series — as long as every
intermediate point stays within the threshold of the anchor–float chord.
On the first violation the current segment is closed at a *break point*
and the break point becomes the next anchor. Two break-point strategies:

* **NOPW** — break at the data point *causing* the threshold violation;
* **BOPW** — break at the data point *just before the float* (the last
  window position that passed in full). In the paper's Fig. 3 the first
  window opens to point 6 with point 4 causing the excess, and point 5 —
  the float's predecessor — becomes the cut point.

BOPW closes longer segments, hence compresses more but commits larger
errors (the paper's Fig. 8 comparison).

OW algorithms are *online*: they never look past the current float, so
they can compress a live stream (see :mod:`repro.streaming`). They are
O(N²) like DP, but with a worse constant because each window growth
rescans the whole window.

The machinery is generic over the *window scan* — the function that finds
the first violating intermediate point — which is how
:class:`~repro.core.opw_tr.OPWTR` (time-ratio scan) and
:class:`~repro.core.spt.OPWSP` (time-ratio + speed scan) reuse it.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core import kernels
from repro.core.base import Compressor, require_positive
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "WindowScanFn",
    "BreakStrategy",
    "perpendicular_scan",
    "opening_window_indices",
    "NOPW",
    "BOPW",
]

#: Break-point strategies: ``"violating"`` (NOPW) or ``"before-float"`` (BOPW).
BreakStrategy = str

_STRATEGIES = ("violating", "before-float")


class WindowScanFn(Protocol):
    """Find the first intermediate point violating the window's criterion.

    Given the current anchor and float (window end), scans interior
    indices ``anchor < i < float_end`` in order and returns the first
    violating index, or ``-1`` when the whole window passes.
    """

    def __call__(self, traj: Trajectory, anchor: int, float_end: int) -> int:
        ...  # pragma: no cover - protocol signature only


def perpendicular_scan(threshold: float) -> WindowScanFn:
    """Window scan testing perpendicular distance to the anchor–float line.

    The criterion of the classic (spatial) NOPW/BOPW algorithms.
    """
    threshold = require_positive("threshold", threshold)

    def scan(traj: Trajectory, anchor: int, float_end: int) -> int:
        return kernels.chord_first_above(
            traj, anchor, float_end, threshold, "perpendicular"
        )

    return scan


def opening_window_indices(
    traj: Trajectory,
    scan: WindowScanFn,
    strategy: BreakStrategy = "violating",
) -> np.ndarray:
    """Generic opening-window driver: retained indices for >= 3 points.

    Args:
        traj: input trajectory (``len >= 3``).
        scan: the per-window violation test.
        strategy: ``"violating"`` (NOPW) or ``"before-float"`` (BOPW).

    The final data point is always retained — the counter-measure for the
    "lost tail" problem the paper observes in Figs. 2–3.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown break strategy {strategy!r}; use one of {_STRATEGIES}")
    n = len(traj)
    keep = [0]
    anchor = 0
    float_end = anchor + 2
    while float_end < n:
        violating = scan(traj, anchor, float_end)
        if violating < 0:
            float_end += 1
            continue
        if strategy == "violating":
            cut = violating
        else:
            cut = float_end - 1
        # The cut must advance past the anchor for termination; with a
        # window of size two the violating point *is* float_end - 1, so
        # both strategies already satisfy this — the max is a guard.
        cut = max(cut, anchor + 1)
        keep.append(cut)
        anchor = cut
        float_end = anchor + 2
    if keep[-1] != n - 1:
        keep.append(n - 1)
    return np.asarray(keep, dtype=int)


class NOPW(Compressor):
    """Normal Opening Window: spatial criterion, break at the violator.

    Online algorithm with perpendicular-distance criterion (Sect. 2.2).

    Args:
        epsilon: perpendicular distance threshold in metres.
    """

    name = "nopw"
    online = True

    def __init__(self, *, epsilon: float) -> None:
        self.epsilon = require_positive("epsilon", epsilon)

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        return opening_window_indices(
            traj, perpendicular_scan(self.epsilon), "violating"
        )


class BOPW(Compressor):
    """Before Opening Window: spatial criterion, break before the float.

    Compresses more aggressively than :class:`NOPW` at the cost of higher
    error (the paper's Fig. 8 trade-off).

    Args:
        epsilon: perpendicular distance threshold in metres.
    """

    name = "bopw"
    online = True

    def __init__(self, *, epsilon: float) -> None:
        self.epsilon = require_positive("epsilon", epsilon)

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        return opening_window_indices(
            traj, perpendicular_scan(self.epsilon), "before-float"
        )
