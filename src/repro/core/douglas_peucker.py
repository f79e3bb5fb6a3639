"""Douglas–Peucker line simplification (the paper's NDP baseline).

The top-down algorithm of Sect. 2.1: anchor the first point, float the
last, find the intermediate point with maximum perpendicular distance to
the anchor–float line; if it exceeds the threshold, cut there and recurse
into both halves.

Two interchangeable traversal drivers are provided:

* :func:`top_down_indices` — iterative, explicit-stack (production
  default; immune to Python's recursion limit on long traces), and
* :func:`top_down_indices_recursive` — a direct transliteration of the
  textbook recursion, kept as an executable specification and compared
  against the iterative driver by the ablation bench.

Both are generic over the *segment error function*, which is how
:class:`~repro.core.td_tr.TDTR` reuses this machinery with the time-ratio
distance instead of the perpendicular one.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core import kernels
from repro.core.base import Compressor, require_positive
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "SegmentErrorFn",
    "perpendicular_segment_error",
    "top_down_indices",
    "top_down_indices_recursive",
    "DouglasPeucker",
]

_TRAVERSALS = ("iterative", "recursive")


class SegmentErrorFn(Protocol):
    """Maximum approximation error of a chord over its interior points.

    Given a candidate chord between data points ``start`` and ``end``,
    returns ``(max_error, argmax_index)`` over interior indices
    ``start < i < end``; ``argmax_index`` is an index into the original
    series. Called only with ``end - start >= 2``.
    """

    def __call__(self, traj: Trajectory, start: int, end: int) -> tuple[float, int]:
        ...  # pragma: no cover - protocol signature only


def perpendicular_segment_error(
    traj: Trajectory, start: int, end: int
) -> tuple[float, int]:
    """NDP's segment error: max perpendicular distance to the chord line."""
    return kernels.chord_max(traj, start, end, "perpendicular")


def top_down_indices(
    traj: Trajectory,
    threshold: float,
    segment_error: SegmentErrorFn,
) -> np.ndarray:
    """Iterative top-down split: retained indices for a >= 3 point series.

    Maintains an explicit work stack of (start, end) spans; a span is
    split at its error argmax whenever the error exceeds ``threshold``.
    Output is identical to the recursive formulation.
    """
    n = len(traj)
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[n - 1] = True
    stack: list[tuple[int, int]] = [(0, n - 1)]
    while stack:
        start, end = stack.pop()
        if end - start < 2:
            continue
        error, cut = segment_error(traj, start, end)
        if error > threshold:
            keep[cut] = True
            stack.append((start, cut))
            stack.append((cut, end))
    return np.nonzero(keep)[0]


def top_down_indices_recursive(
    traj: Trajectory,
    threshold: float,
    segment_error: SegmentErrorFn,
) -> np.ndarray:
    """Recursive reference implementation of :func:`top_down_indices`.

    Kept as an executable specification of the classic DP recursion
    (Fig. 1 of the paper); raises ``RecursionError`` on pathological
    inputs where the iterative driver keeps working.
    """
    n = len(traj)
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[n - 1] = True

    def split(start: int, end: int) -> None:
        if end - start < 2:
            return
        error, cut = segment_error(traj, start, end)
        if error > threshold:
            keep[cut] = True
            split(start, cut)
            split(cut, end)

    split(0, n - 1)
    return np.nonzero(keep)[0]


def resolve_traversal(traversal: str):
    """Map a traversal name to its top-down driver function."""
    if traversal not in _TRAVERSALS:
        raise ValueError(
            f"unknown traversal {traversal!r}; use one of {_TRAVERSALS}"
        )
    return top_down_indices if traversal == "iterative" else top_down_indices_recursive


class DouglasPeucker(Compressor):
    """NDP: the classic spatial Douglas–Peucker compressor (Sect. 2.1).

    A batch, top-down algorithm with O(N²) worst-case time. Retains a
    point whenever its perpendicular distance to the current approximating
    chord exceeds ``epsilon``.

    Args:
        epsilon: perpendicular distance threshold in metres (the paper
            sweeps 30–100 m).
        traversal: ``"iterative"`` (default) or ``"recursive"``.
    """

    name = "ndp"

    def __init__(self, *, epsilon: float, traversal: str = "iterative") -> None:
        self.epsilon = require_positive("epsilon", epsilon)
        self.traversal = traversal
        self._traversal = resolve_traversal(traversal)

    def select_indices(self, traj: Trajectory) -> np.ndarray:
        return self._traversal(traj, self.epsilon, perpendicular_segment_error)
