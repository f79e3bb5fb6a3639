"""Budget-driven halting conditions (paper Sect. 2).

The paper lists three possible halting conditions for compression
algorithms:

1. *the maximum error for a segment exceeds a user-defined threshold* —
   that is what every ``epsilon`` compressor in this package implements;
2. *the number of data points exceeds a user-defined value* —
   implemented here as :class:`TDTRBudget` (best-first top-down splitting
   until the point budget is filled) and :class:`BottomUpBudget`
   (cheapest-first merging until only the budget remains);
3. *the sum of the errors of all segments exceeds a user-defined
   threshold* — implemented as :class:`BottomUpTotalError`, which merges
   greedily while the whole approximation's time-weighted mean
   synchronized error (the paper's α, Sect. 4.2) stays within budget.

Point-budget compression is what a fixed-size storage page or a fixed
transmission quota needs; total-error budgeting is the natural knob when
an application can say "stay within 10 m on average" but has no per-point
intuition.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core import kernels
from repro.core.base import Compressor, require_positive
from repro.trajectory.trajectory import Trajectory

__all__ = ["TDTRBudget", "BottomUpBudget", "BottomUpTotalError"]

_CRITERIA = ("perpendicular", "synchronized")


class TDTRBudget(Compressor):
    """Best-first top-down splitting to an exact point budget.

    Starts from the endpoint chord and repeatedly splits the span whose
    maximum error is largest — the classic DP variant for the paper's
    "number of data points exceeds a user-defined value" halting
    condition. With the synchronized criterion (default) this is the
    budgeted TD-TR; with the perpendicular one, budgeted NDP.

    The result has exactly ``min(budget, len(trajectory))`` points
    (splitting stops early only when every remaining span is error-free).

    Args:
        budget: number of points to keep (``>= 2``).
        criterion: ``"synchronized"`` (default) or ``"perpendicular"``.
    """

    name = "td-tr-budget"

    def __init__(self, *, budget: int, criterion: str = "synchronized") -> None:
        if not isinstance(budget, (int, np.integer)) or budget < 2:
            raise ValueError(f"budget must be an integer >= 2, got {budget!r}")
        if criterion not in _CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}; use one of {_CRITERIA}")
        self.budget = int(budget)
        self.criterion = criterion

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        n = len(traj)
        if self.budget >= n:
            return np.arange(n)
        keep = {0, n - 1}
        # Max-heap on error (negated); ties broken deterministically by
        # span start for reproducible output.
        heap: list[tuple[float, int, int, int]] = []

        def push(start: int, end: int) -> None:
            if end - start < 2:
                return
            error, cut = kernels.chord_max(
                traj.column_lists, start, end, self.criterion, traj.columns
            )
            if error > 0.0:
                heapq.heappush(heap, (-error, start, end, cut))

        push(0, n - 1)
        while heap and len(keep) < self.budget:
            _, start, end, cut = heapq.heappop(heap)
            keep.add(cut)
            push(start, cut)
            push(cut, end)
        return np.asarray(sorted(keep), dtype=int)


class BottomUpBudget(Compressor):
    """Cheapest-first bottom-up merging to an exact point budget.

    Starts from the full series and repeatedly removes the interior
    point whose removal introduces the smallest maximum error, until only
    ``budget`` points remain. The dual of :class:`TDTRBudget`; usually a
    little better at equal budget because merges are chosen globally.

    Args:
        budget: number of points to keep (``>= 2``).
        criterion: ``"synchronized"`` (default) or ``"perpendicular"``.
    """

    name = "bottom-up-budget"

    def __init__(self, *, budget: int, criterion: str = "synchronized") -> None:
        if not isinstance(budget, (int, np.integer)) or budget < 2:
            raise ValueError(f"budget must be an integer >= 2, got {budget!r}")
        if criterion not in _CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}; use one of {_CRITERIA}")
        self.budget = int(budget)
        self.criterion = criterion

    def _merge_cost(self, traj: Trajectory, start: int, end: int) -> float:
        if end - start < 2:
            return 0.0
        return kernels.chord_max(
            traj.column_lists, start, end, self.criterion, traj.columns
        )[0]

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        n = len(traj)
        if self.budget >= n:
            return np.arange(n)
        prev = np.arange(-1, n - 1)
        nxt = np.arange(1, n + 1)
        alive = np.ones(n, dtype=bool)
        heap: list[tuple[float, int, int, int]] = []
        for mid in range(1, n - 1):
            heapq.heappush(
                heap, (self._merge_cost(traj, mid - 1, mid + 1), mid, mid - 1, mid + 1)
            )
        remaining = n
        while heap and remaining > self.budget:
            _, mid, left, right = heapq.heappop(heap)
            if not alive[mid] or prev[mid] != left or nxt[mid] != right:
                continue
            if not (alive[left] and alive[right]):
                continue
            alive[mid] = False
            remaining -= 1
            nxt[left] = right
            prev[right] = left
            if left > 0:
                heapq.heappush(
                    heap,
                    (self._merge_cost(traj, prev[left], right), left, prev[left], right),
                )
            if right < n - 1:
                heapq.heappush(
                    heap,
                    (self._merge_cost(traj, left, nxt[right]), right, left, nxt[right]),
                )
        return np.nonzero(alive)[0]


class BottomUpTotalError(Compressor):
    """Merge greedily while the *whole* approximation's α stays in budget.

    The paper's third halting condition: "the sum of the errors of all
    segments exceeds a user-defined threshold". We make "sum of errors"
    precise using the paper's own Sect. 4.2 notion: the time-weighted
    mean synchronized error α(p, a) of the approximation against the
    original. Interior points are removed cheapest-first (smallest
    increase in the total error integral); compression stops when no
    removal keeps α within ``max_mean_error``.

    Args:
        max_mean_error: budget for the approximation's mean synchronized
            error, in metres.
    """

    name = "bottom-up-total-error"

    def __init__(self, *, max_mean_error: float) -> None:
        self.max_mean_error = require_positive("max_mean_error", max_mean_error)

    def _span_integral(self, traj: Trajectory, start: int, end: int) -> float:
        """Error integral of one approx segment over its original span."""
        if end - start < 2:
            return 0.0
        return kernels.chord_integral(traj.column_lists, start, end, traj.columns)

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        n = len(traj)
        duration = traj.end_time - traj.start_time
        if duration <= 0.0:
            return np.arange(n)
        error_budget = self.max_mean_error * duration  # total integral budget
        prev = np.arange(-1, n - 1)
        nxt = np.arange(1, n + 1)
        alive = np.ones(n, dtype=bool)
        # Current error integral per live segment, keyed by start index.
        segment_integral = {i: 0.0 for i in range(n - 1)}
        total_integral = 0.0
        heap: list[tuple[float, int, int, int]] = []

        def push_candidate(mid: int) -> None:
            left, right = int(prev[mid]), int(nxt[mid])
            merged = self._span_integral(traj, left, right)
            increase = merged - segment_integral[left] - segment_integral[mid]
            heapq.heappush(heap, (increase, mid, left, right))

        for mid in range(1, n - 1):
            push_candidate(mid)
        while heap:
            increase, mid, left, right = heapq.heappop(heap)
            if not alive[mid] or prev[mid] != left or nxt[mid] != right:
                continue
            if total_integral + increase > error_budget:
                # Increases are not monotone across candidates after
                # rewiring, but stale entries were re-pushed; the
                # cheapest valid candidate exceeding budget means every
                # other valid candidate does too.
                break
            merged_integral = self._span_integral(traj, left, right)
            total_integral += merged_integral - segment_integral[left] - segment_integral[mid]
            alive[mid] = False
            nxt[left] = right
            prev[right] = left
            segment_integral[left] = merged_integral
            del segment_integral[mid]
            if left > 0:
                push_candidate(left)
            if right < n - 1:
                push_candidate(right)
        return np.nonzero(alive)[0]
