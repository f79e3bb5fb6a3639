"""The paper's spatiotemporal algorithm class (Sect. 3.3): OPW-SP, TD-SP.

The SP class combines two retention criteria:

* the **time-ratio distance** of Sect. 3.2 against ``max_dist_error``, and
* a **speed-difference test**: a point is retained when the derived speeds
  of its two adjacent segments differ by more than ``max_speed_error``
  (speeds are derived from timestamps and positions, not measured).

Three implementations:

* :func:`spt_paper_indices` — a faithful port of the paper's ``SPT``
  pseudocode (including its restart-the-inner-scan-on-every-window-growth
  behaviour), kept as the executable specification;
* :class:`OPWSP` — the same algorithm run by the opening-window core
  (:class:`~repro.core.opening_window.OpeningWindow`), asking each
  point's speed test once and each window's distances in one kernel
  sweep; the test suite asserts it selects *identical* indices to the
  faithful port;
* :class:`TDSP` — the top-down application of the two criteria, which the
  paper evaluates as TD-SP in Fig. 10 but does not give pseudocode for.
  Our design: a span is split at its worst speed-violating interior point
  when one exists, otherwise at the maximum synchronized-distance point
  when that exceeds the threshold (see DESIGN.md's ablation notes).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import kernels
from repro.core.base import Compressor, require_positive
from repro.core.douglas_peucker import top_down_indices
from repro.core.opening_window import OpeningWindow
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "speed_violations",
    "spt_paper_indices",
    "OPWSP",
    "TDSP",
]


def speed_violations(traj: Trajectory, max_speed_error: float) -> np.ndarray:
    """Boolean mask over points: speed-difference criterion fires there.

    ``out[i]`` is True when ``|v_i - v_{i-1}| > max_speed_error`` with
    ``v_i`` the derived speed of segment ``(i, i+1)``. Endpoints are never
    marked (they have only one adjacent segment). The mask form of the
    :func:`~repro.core.kernels.speed_jumps_above` question that OPW-SP
    asks.
    """
    n = len(traj)
    out = np.zeros(n, dtype=bool)
    if n >= 3:
        flagged = kernels.speed_jumps_above(
            traj.column_lists, 0, n - 1, max_speed_error, traj.columns
        )
        out[flagged] = True
    return out


def spt_paper_indices(
    traj: Trajectory, max_dist_error: float, max_speed_error: float
) -> np.ndarray:
    """Faithful port of the paper's ``SPT`` pseudocode (Sect. 3.3).

    Differences from the printed pseudocode are only mechanical: indices
    are 0-based, the tail recursion ``[s[1]] ++ SPT(s[i:], ...)`` is
    unrolled into a loop, and retained *indices* (not points) are
    returned. The sequence of checks — including recomputing every
    interior point's synchronized position each time the window grows — is
    preserved, which makes this the executable specification that
    :class:`OPWSP` is verified against.
    """
    max_dist_error = require_positive("max_dist_error", max_dist_error)
    max_speed_error = require_positive("max_speed_error", max_speed_error)
    t, x, y = traj.column_lists
    n = len(traj)
    keep = [0]
    base = 0
    while n - base > 2:
        violating = -1
        # Paper: e runs over window ends; inner i rescans the window.
        float_end = base + 1
        while float_end <= n - 1 and violating < 0:
            j = base + 1
            while j < float_end and violating < 0:
                ratio = (t[j] - t[base]) / (t[float_end] - t[base])
                sx = x[j] - (x[base] + ratio * (x[float_end] - x[base]))
                sy = y[j] - (y[base] + ratio * (y[float_end] - y[base]))
                sync_dist = math.sqrt(sx * sx + sy * sy)
                px, py = x[j] - x[j - 1], y[j] - y[j - 1]
                v_prev = math.sqrt(px * px + py * py) / (t[j] - t[j - 1])
                nx, ny = x[j + 1] - x[j], y[j + 1] - y[j]
                v_next = math.sqrt(nx * nx + ny * ny) / (t[j + 1] - t[j])
                if sync_dist > max_dist_error or abs(v_next - v_prev) > max_speed_error:
                    violating = j
                else:
                    j += 1
            if violating < 0:
                float_end += 1
        if violating < 0:
            # Whole remaining series fits one segment: keep only its ends.
            keep.append(n - 1)
            return np.asarray(keep, dtype=int)
        keep.append(violating)
        base = violating
    # Paper base case: a series of <= 2 points is returned as-is.
    keep.extend(range(base + 1, n))
    return np.asarray(keep, dtype=int)


class OPWSP(Compressor):
    """Opening-window spatiotemporal compressor (the paper's OPW-SP).

    Online algorithm; equivalent to the paper's ``SPT`` pseudocode
    (identical selected indices) without its per-window recomputation of
    the speed test, which is what the ablation bench measures.

    Args:
        max_dist_error: synchronized distance threshold in metres.
        max_speed_error: speed-difference threshold in m/s (the paper
            sweeps 5, 15 and 25 m/s).
    """

    name = "opw-sp"
    online = True

    def __init__(self, *, max_dist_error: float, max_speed_error: float) -> None:
        self.max_dist_error = require_positive("max_dist_error", max_dist_error)
        self.max_speed_error = require_positive("max_speed_error", max_speed_error)

    def sync_error_bound(self) -> float:
        """The distance half of the SP criterion bounds the synchronized
        deviation exactly as OPW-TR's does."""
        return self.max_dist_error

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        return OpeningWindow(
            traj.column_lists,
            traj.columns,
            criterion="synchronized",
            epsilon=self.max_dist_error,
            max_speed_error=self.max_speed_error,
        ).indices()


class TDSP(Compressor):
    """Top-down spatiotemporal compressor (the paper's TD-SP).

    Batch algorithm. A span is split at its worst interior
    speed-difference violation when one exists (so every point where the
    speed profile jumps by more than ``max_speed_error`` is eventually
    retained); spans without speed violations are split exactly like
    TD-TR. The paper evaluates TD-SP but gives no pseudocode; this design
    is the natural top-down application of its two criteria.

    Args:
        max_dist_error: synchronized distance threshold in metres.
        max_speed_error: speed-difference threshold in m/s.
    """

    name = "td-sp"

    def __init__(self, *, max_dist_error: float, max_speed_error: float) -> None:
        self.max_dist_error = require_positive("max_dist_error", max_dist_error)
        self.max_speed_error = require_positive("max_speed_error", max_speed_error)

    def sync_error_bound(self) -> float:
        """Splitting continues while any interior synchronized distance
        exceeds the threshold, so it bounds the result like TD-TR."""
        return self.max_dist_error

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        speed_diff = np.zeros(len(traj))
        speed_diff[1:-1] = kernels.speed_deltas(*traj.columns)

        def segment_error(tr: Trajectory, start: int, end: int) -> tuple[float, int]:
            worst, cut = kernels.range_max(speed_diff, start + 1, end)
            if worst > self.max_speed_error:
                # Force a split at the worst speed violator by reporting
                # an error above any finite threshold.
                return float("inf"), cut
            return kernels.chord_max(
                tr.column_lists, start, end, "synchronized", tr.columns
            )

        return top_down_indices(traj, self.max_dist_error, segment_error)
