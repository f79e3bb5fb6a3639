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
they can compress a live stream. They are O(N²) like DP, but with a
worse constant because each window growth rescans the whole window.

Every member of the family — NOPW, BOPW, :class:`~repro.core.opw_tr.OPWTR`
and :class:`~repro.core.spt.OPWSP` — decides through one
:class:`OpeningWindow`. A batch compressor hands it a whole trajectory's
columns and advances it once; :class:`~repro.streaming.online.StreamingOPW`
appends one fix at a time and advances it after each, so the two forms
cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.base import Compressor, require_positive
from repro.trajectory.trajectory import Trajectory

__all__ = ["BreakStrategy", "OpeningWindow", "NOPW", "BOPW"]

#: Break-point strategies: ``"violating"`` (NOPW) or ``"before-float"`` (BOPW).
BreakStrategy = str

_STRATEGIES = ("violating", "before-float")

_CRITERIA = ("perpendicular", "synchronized")


class OpeningWindow:
    """The opening-window decision core, shared by batch and push.

    Holds the window's ``(t, x, y)`` columns, its anchor and float and,
    when a speed threshold is set (OPW-SP), the points whose speed jump
    exceeds it. :meth:`advance` moves the float as far as the held
    columns allow and returns the break points it decided. A window scan
    is one :func:`~repro.core.kernels.chord_first_above` question; the
    speed test depends on a point and its two neighbours only, so each
    point is asked :func:`~repro.core.kernels.speed_jumps_above` once,
    when it first has a successor.

    Args:
        columns: the ``(t, x, y)`` float lists. Held, not copied: a
            batch compressor passes ``Trajectory.column_lists``, a
            streaming window its own lists, which it appends to between
            calls.
        arrays: the same columns as numpy arrays when the caller has
            them (``Trajectory.columns``); without them a long sweep
            converts the slice it reads.
        criterion: ``"perpendicular"`` (NOPW, BOPW) or
            ``"synchronized"`` (OPW-TR, OPW-SP).
        epsilon: distance threshold in metres.
        strategy: ``"violating"`` (NOPW) or ``"before-float"`` (BOPW).
        max_speed_error: optional speed-jump threshold in m/s (OPW-SP).
        max_window: optional bound on the window's point count; a window
            that reaches it without a violation breaks at the float's
            predecessor, the last fully validated float.
    """

    def __init__(
        self,
        columns: tuple[list[float], list[float], list[float]],
        arrays: kernels.Arrays | None = None,
        *,
        criterion: str,
        epsilon: float,
        strategy: BreakStrategy = "violating",
        max_speed_error: float | None = None,
        max_window: int | None = None,
    ) -> None:
        if criterion not in _CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}; use one of {_CRITERIA}")
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown break strategy {strategy!r}; use one of {_STRATEGIES}"
            )
        if max_window is not None and max_window < 3:
            raise ValueError(f"max_window must be >= 3, got {max_window}")
        self.columns = columns
        self.arrays = arrays
        self.criterion = criterion
        self.epsilon = require_positive("epsilon", epsilon)
        self.strategy = strategy
        self.max_speed_error = (
            None
            if max_speed_error is None
            else require_positive("max_speed_error", max_speed_error)
        )
        self.max_window = max_window
        #: Start of the open segment (already retained).
        self.anchor = 0
        #: End of the next window to scan.
        self.float_end = 2
        #: Speed-flagged points, ascending; those at or before the
        #: anchor no longer matter.
        self._flagged: list[int] = []
        #: Position in ``_flagged`` of the first point after the anchor.
        self._next_flag = 0
        #: Points before this index have had their speed test.
        self._speed_tested = 1

    def advance(self) -> list[int]:
        """Scan every window the held columns allow; returns the break
        points decided, ascending (indices into the columns)."""
        columns, arrays = self.columns, self.arrays
        n = len(columns[0])
        if self.max_speed_error is not None and self._speed_tested < n - 1:
            self._flagged += kernels.speed_jumps_above(
                columns, self._speed_tested - 1, n - 1, self.max_speed_error, arrays
            )
            self._speed_tested = n - 1
        flagged, k = self._flagged, self._next_flag
        epsilon, criterion = self.epsilon, self.criterion
        before_float = self.strategy == "before-float"
        max_window = self.max_window
        anchor, float_end = self.anchor, self.float_end
        cuts: list[int] = []
        while float_end < n:
            flag = flagged[k] if k < len(flagged) and flagged[k] < float_end else -1
            if flag == anchor + 1:
                # The first interior point violates: no scan finds an earlier one.
                violating = flag
            else:
                violating = kernels.chord_first_above(
                    columns, anchor, float_end, epsilon, criterion, arrays
                )
                if flag >= 0 and (violating < 0 or flag < violating):
                    violating = flag
            if violating < 0:
                if max_window is None or float_end - anchor + 1 < max_window:
                    float_end += 1
                    continue
                cut = float_end - 1  # forced break: the window is full
            elif before_float:
                cut = float_end - 1
            else:
                cut = violating
            # Every cut lies inside the window, so the anchor advances.
            cuts.append(cut)
            anchor = cut
            float_end = anchor + 2
            while k < len(flagged) and flagged[k] <= anchor:
                k += 1
        self.anchor, self.float_end, self._next_flag = anchor, float_end, k
        return cuts

    def indices(self) -> np.ndarray:
        """Batch form: advance over every held point once and return the
        retained indices, first and last point included (the paper's
        lost-tail counter-measure)."""
        keep = [0, *self.advance()]
        last = len(self.columns[0]) - 1
        if keep[-1] != last:
            keep.append(last)
        return np.asarray(keep, dtype=int)

    def drop_before_anchor(self) -> None:
        """Push form: forget the points before the anchor, which no later
        window reads, and re-base every held index onto the rest."""
        anchor = self.anchor
        for column in self.columns:
            del column[:anchor]
        self.anchor = 0
        self.float_end -= anchor
        self._speed_tested -= anchor
        self._flagged = [i - anchor for i in self._flagged[self._next_flag :]]
        self._next_flag = 0


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
        return OpeningWindow(
            traj.column_lists,
            traj.columns,
            criterion="perpendicular",
            epsilon=self.epsilon,
        ).indices()


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
        return OpeningWindow(
            traj.column_lists,
            traj.columns,
            criterion="perpendicular",
            epsilon=self.epsilon,
            strategy="before-float",
        ).indices()
