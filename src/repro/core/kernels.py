"""Compression and error sweeps, each as a numpy kernel and a scalar mirror.

The discard tests of every algorithm in this library reduce to a handful
of per-chord sweeps: the synchronized (time-ratio) distance of Eqs. 1–2,
the perpendicular distance of classic line generalization, the derived
segment speeds of the SP criterion, and the closed-form α integrand of
Sect. 4.2. This module implements each sweep twice:

* a **NumPy kernel** (``sync_distances``, ``perp_distances``,
  ``segment_speeds``, ``speed_deltas``, ``segment_mean_distances``,
  ``chord_point_distances``, ``chord_line_distances``) that evaluates a
  whole point range per call; and
* a **scalar mirror** (the ``*_py`` functions), a point-by-point port in
  pure Python.

Both sides compute the *same floating-point expressions in the same
order* (for example ``sqrt(dx*dx + dy*dy)`` rather than ``hypot``, whose
libm rounding may differ from the explicit form by one ulp), so for any
input they produce **bit-identical** values.

A sweep that callers run over ranges of any length — a chord's interior,
a run of speed jumps, an integral over a span or a time grid, the
maximum of a slice — is one question to this module (:func:`chord_max`,
:func:`chord_first_above`, :func:`chord_indices_above`,
:func:`chord_integral`, :func:`speed_jumps_above`,
:func:`distance_integral`, :func:`range_max`), answered on the side the
sweep's length selects: a numpy call pays a fixed cost of several
microseconds (slices, temporaries, ufunc dispatch) where the mirror pays
a fraction of a microsecond per value, so a sweep shorter than one
measured cutoff runs the mirror and a longer one the kernel
(``docs/PERFORMANCE.md`` has each sweep's crossover). Callers never
choose a side. The point-series questions take ``(t, x, y)`` columns,
not a trajectory, so a batch compression and a streaming window ask the
same question: the scalar side reads Python float lists, and the numpy
side reads the caller's arrays when it has them (a trajectory's cached
``columns``) or converts just the slice it sweeps (a streaming window).
A sweep over a whole trajectory (segment speeds, every point's distance
to its chord) calls the kernel directly: numpy wins those from 32
values or fewer, and their mirrors serve only as the tests' reference.
One compression therefore mixes both sides,
which is why bit-identity binds every run and not only the tests;
``tests/core/test_engine_conformance.py`` forces each side by patching
the cutoff, requires identical retained indices and bit-identical error
reports, and compares every mirror with its kernel value by value.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.exceptions import TrajectoryError

__all__ = [
    "sync_distances",
    "sync_distances_py",
    "sync_distance_py",
    "perp_distances",
    "perp_distances_py",
    "segment_speeds",
    "segment_speeds_py",
    "speed_deltas",
    "speed_deltas_py",
    "first_above",
    "first_above_py",
    "max_with_offset",
    "max_with_offset_py",
    "segment_mean_distances",
    "segment_mean_distance_py",
    "chord_point_distances",
    "chord_point_distance_py",
    "chord_line_distances",
    "chord_line_distance_py",
    "chord_max",
    "chord_first_above",
    "chord_indices_above",
    "chord_integral",
    "speed_jumps_above",
    "range_max",
    "distance_integral",
]

#: Shortest sweep, in values computed, that runs the numpy kernel; a
#: shorter sweep runs the scalar mirror. Set from the measured crossover
#: of the two sides (``docs/PERFORMANCE.md``).
_NUMPY_MIN_SWEEP = 48

#: A point series' ``(t, x, y)`` columns as Python float lists, the
#: scalar side's input (``Trajectory.column_lists``, or a streaming
#: window's own lists).
Columns = tuple[Sequence[float], Sequence[float], Sequence[float]]

#: The same columns as numpy float arrays (``Trajectory.columns``).
Arrays = tuple[np.ndarray, np.ndarray, np.ndarray]


# --------------------------------------------------------------------- #
# Synchronized (time-ratio) distance, Eqs. 1–2
# --------------------------------------------------------------------- #


def sync_distances(
    t: np.ndarray, x: np.ndarray, y: np.ndarray, start: int, end: int
) -> np.ndarray:
    """Batch synchronized distances of interior points to a chord.

    For the candidate chord between data points ``start`` and ``end``,
    returns ``dist(P_i, P'_i)`` for every interior index
    ``start < i < end`` in one vectorized sweep — the quantity TD-TR,
    OPW-TR and OPW-SP test against their distance threshold.

    Args:
        t: timestamps, shape ``(n,)``, strictly increasing.
        x, y: coordinate columns, shape ``(n,)``.
        start: chord start index.
        end: chord end index (``end > start``).

    Returns:
        Array of shape ``(end - start - 1,)``; empty for adjacent points.
    """
    ts = t[start]
    delta_e = t[end] - ts
    ratio = (t[start + 1 : end] - ts) / delta_e
    px = x[start] + ratio * (x[end] - x[start])
    py = y[start] + ratio * (y[end] - y[start])
    dx = x[start + 1 : end] - px
    dy = y[start + 1 : end] - py
    return np.sqrt(dx * dx + dy * dy)


def sync_distances_py(
    t: list[float], x: list[float], y: list[float], start: int, end: int
) -> list[float]:
    """Scalar reference mirror of :func:`sync_distances`."""
    ts = t[start]
    delta_e = t[end] - ts
    xs, ys = x[start], y[start]
    ex, ey = x[end] - xs, y[end] - ys
    out = []
    for i in range(start + 1, end):
        ratio = (t[i] - ts) / delta_e
        dx = x[i] - (xs + ratio * ex)
        dy = y[i] - (ys + ratio * ey)
        out.append(math.sqrt(dx * dx + dy * dy))
    return out


def sync_distance_py(
    start: Sequence[float], point: Sequence[float], end: Sequence[float]
) -> float:
    """Synchronized distance of one ``(t, x, y)`` point to the chord
    ``start``–``end``: one value of :func:`sync_distances_py`, in its
    terms and order.

    The single-point question of the budget compressors (SQUISH-E and
    STTrace score a buffered point against its two neighbours), which
    hold :class:`~repro.types.Fix` tuples rather than columns.
    """
    ts, xs, ys = start
    ti, xi, yi = point
    te, xe, ye = end
    ratio = (ti - ts) / (te - ts)
    dx = xi - (xs + ratio * (xe - xs))
    dy = yi - (ys + ratio * (ye - ys))
    return math.sqrt(dx * dx + dy * dy)


# --------------------------------------------------------------------- #
# Perpendicular distance (infinite line through a chord)
# --------------------------------------------------------------------- #


def perp_distances(
    x: np.ndarray, y: np.ndarray, start: int, end: int
) -> np.ndarray:
    """Batch perpendicular distances of interior points to a chord line.

    The discard criterion of the spatial algorithms (NDP, NOPW, BOPW):
    cross-product magnitude over chord length, degenerating to the plain
    point distance when the chord has zero length.

    Returns:
        Array of shape ``(end - start - 1,)``.
    """
    ax, ay = x[start], y[start]
    abx = x[end] - ax
    aby = y[end] - ay
    norm = np.sqrt(abx * abx + aby * aby)
    rx = x[start + 1 : end] - ax
    ry = y[start + 1 : end] - ay
    if norm == 0.0:
        return np.sqrt(rx * rx + ry * ry)
    cross = rx * aby - ry * abx
    return np.abs(cross) / norm


def perp_distances_py(
    x: list[float], y: list[float], start: int, end: int
) -> list[float]:
    """Scalar reference mirror of :func:`perp_distances`."""
    ax, ay = x[start], y[start]
    abx = x[end] - ax
    aby = y[end] - ay
    norm = math.sqrt(abx * abx + aby * aby)
    out = []
    for i in range(start + 1, end):
        rx = x[i] - ax
        ry = y[i] - ay
        if norm == 0.0:
            out.append(math.sqrt(rx * rx + ry * ry))
        else:
            out.append(abs(rx * aby - ry * abx) / norm)
    return out


# --------------------------------------------------------------------- #
# Derived segment speeds and speed differences (SP criterion)
# --------------------------------------------------------------------- #


def segment_speeds(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batch derived speeds ``v[i] = dist(P_{i+1}, P_i) / (t_{i+1} - t_i)``.

    Returns:
        Array of shape ``(n - 1,)``.
    """
    dx = x[1:] - x[:-1]
    dy = y[1:] - y[:-1]
    dt = t[1:] - t[:-1]
    return np.sqrt(dx * dx + dy * dy) / dt


def segment_speeds_py(
    t: list[float], x: list[float], y: list[float]
) -> list[float]:
    """Scalar reference mirror of :func:`segment_speeds`."""
    out = []
    for i in range(len(t) - 1):
        dx = x[i + 1] - x[i]
        dy = y[i + 1] - y[i]
        out.append(math.sqrt(dx * dx + dy * dy) / (t[i + 1] - t[i]))
    return out


def speed_deltas(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batch speed differences ``|v_i - v_{i-1}|`` at interior points.

    ``out[j]`` is the speed jump at data point ``j + 1`` — the quantity
    the SP algorithms compare against ``max_speed_error``.

    Returns:
        Array of shape ``(n - 2,)``.
    """
    v = segment_speeds(t, x, y)
    return np.abs(v[1:] - v[:-1])


def speed_deltas_py(
    t: list[float], x: list[float], y: list[float]
) -> list[float]:
    """Scalar reference mirror of :func:`speed_deltas`."""
    v = segment_speeds_py(t, x, y)
    return [abs(v[j + 1] - v[j]) for j in range(len(v) - 1)]


# --------------------------------------------------------------------- #
# Reductions over criterion sweeps
# --------------------------------------------------------------------- #


def first_above(values: np.ndarray, threshold: float) -> int:
    """Offset of the first value strictly above ``threshold``, or ``-1``."""
    hits = np.nonzero(values > threshold)[0]
    if hits.size == 0:
        return -1
    return int(hits[0])


def first_above_py(values: list[float], threshold: float) -> int:
    """Scalar reference mirror of :func:`first_above`."""
    for offset, value in enumerate(values):
        if value > threshold:
            return offset
    return -1


def max_with_offset(values: np.ndarray) -> tuple[float, int]:
    """``(max value, offset of its first occurrence)`` of a sweep."""
    offset = int(np.argmax(values))
    return float(values[offset]), offset


def max_with_offset_py(values: list[float]) -> tuple[float, int]:
    """Scalar reference mirror of :func:`max_with_offset`.

    The strict ``>`` keeps the *first* occurrence of the maximum, matching
    ``np.argmax``.
    """
    best = values[0]
    best_offset = 0
    for offset in range(1, len(values)):
        if values[offset] > best:
            best = values[offset]
            best_offset = offset
    return best, best_offset


# --------------------------------------------------------------------- #
# Closed-form α integrand (paper Eq. 4/5), batched
# --------------------------------------------------------------------- #

#: Relative tolerance for degenerate-case detection, shared by both sides.
_CASE_RTOL = 1e-12


def segment_mean_distance_py(v0: Sequence[float], v1: Sequence[float]) -> float:
    """Average of ``|v0 + u (v1 - v0)|`` over ``u ∈ [0, 1]``.

    This is the single-interval building block of α(p, a) — the paper's
    Eq. 4/5 after normalizing time to the unit interval (which leaves the
    *average* unchanged). See :mod:`repro.error.synchronized` for the
    case analysis; public there as ``segment_mean_distance``.

    Args:
        v0: difference vector at the interval start, two components.
        v1: difference vector at the interval end, two components.

    Raises:
        TrajectoryError: a component of ``v0``/``v1`` is NaN or
            infinite. The case analysis below would otherwise turn such
            input into a quiet NaN (or a spurious finite value via the
            clamps), poisoning every aggregate built on top.
    """
    v0x, v0y = float(v0[0]), float(v0[1])
    v1x, v1y = float(v1[0]), float(v1[1])
    if not all(map(math.isfinite, (v0x, v0y, v1x, v1y))):
        raise TrajectoryError(
            f"difference vectors must be finite, got v0={[v0x, v0y]}, "
            f"v1={[v1x, v1y]}"
        )
    # Explicit component products (not a dot product): the batch kernel
    # below mirrors these expressions term by term, and BLAS dot
    # products may differ from the written-out form by one ulp.
    wx = v1x - v0x
    wy = v1y - v0y
    a = wx * wx + wy * wy
    b = 2.0 * (v0x * wx + v0y * wy)
    c = v0x * v0x + v0y * v0y
    scale = max(a, abs(b), c, 1e-300)
    if a <= _CASE_RTOL * scale:
        # Paper case c1 = 0: pure translation, constant distance.
        return float(np.sqrt(c))
    disc = 4.0 * a * c - b * b
    if disc <= _CASE_RTOL * scale * scale:
        # Paper case c2² - 4 c1 c3 = 0: parallel difference vectors; the
        # integrand is sqrt(a) * |u - r| with r the zero crossing.
        r = -b / (2.0 * a)
        if r <= 0.0:
            integral = 0.5 - r
        elif r >= 1.0:
            integral = r - 0.5
        else:
            integral = (r * r + (1.0 - r) * (1.0 - r)) / 2.0
        return float(np.sqrt(a) * integral)
    # General case: arcsinh antiderivative (the paper's F(t)). numpy's
    # arcsinh, not math.asinh, so both sides share one implementation.
    sqrt_disc = np.sqrt(disc)
    sqrt_a = np.sqrt(a)

    def antiderivative(u: float) -> float:
        s = np.sqrt(max(a * u * u + b * u + c, 0.0))
        return float(
            (2.0 * a * u + b) / (4.0 * a) * s
            + disc / (8.0 * a * sqrt_a) * np.arcsinh((2.0 * a * u + b) / sqrt_disc)
        )

    return antiderivative(1.0) - antiderivative(0.0)


def segment_mean_distances(v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Batch average of ``|v0 + u (v1 - v0)|`` over ``u ∈ [0, 1]`` per row.

    Vectorized twin of :func:`segment_mean_distance_py` — same case
    analysis, same expressions, bit-identical output row by row. This is
    the per-segment sweep of the paper's α(p, a) integral, evaluated for
    all merged-grid intervals in one call.

    Args:
        v0: difference vectors at interval starts, shape ``(n, 2)``.
        v1: difference vectors at interval ends, shape ``(n, 2)``.

    Raises:
        TrajectoryError: any component is NaN or infinite.
    """
    v0 = np.asarray(v0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    if not (np.all(np.isfinite(v0)) and np.all(np.isfinite(v1))):
        raise TrajectoryError("difference vectors must be finite")
    wx = v1[:, 0] - v0[:, 0]
    wy = v1[:, 1] - v0[:, 1]
    # a, b, c mirror the scalar reference's dot products term by term.
    a = wx * wx + wy * wy
    b = 2.0 * (v0[:, 0] * wx + v0[:, 1] * wy)
    c = v0[:, 0] * v0[:, 0] + v0[:, 1] * v0[:, 1]
    scale = np.maximum(np.maximum(a, np.abs(b)), np.maximum(c, 1e-300))
    out = np.empty(a.shape[0])

    # Case c1 = 0: pure translation, constant distance.
    case1 = a <= _CASE_RTOL * scale
    out[case1] = np.sqrt(c[case1])

    disc = 4.0 * a * c - b * b
    rest = ~case1

    # Case c2² - 4 c1 c3 = 0: parallel difference vectors.
    case2 = rest & (disc <= _CASE_RTOL * scale * scale)
    if np.any(case2):
        a2, b2 = a[case2], b[case2]
        r = -b2 / (2.0 * a2)
        integral = np.where(
            r <= 0.0,
            0.5 - r,
            np.where(r >= 1.0, r - 0.5, (r * r + (1.0 - r) * (1.0 - r)) / 2.0),
        )
        out[case2] = np.sqrt(a2) * integral

    # General case: arcsinh antiderivative (the paper's F(t)).
    case3 = rest & ~case2
    if np.any(case3):
        a3, b3, c3 = a[case3], b[case3], c[case3]
        disc3 = disc[case3]
        sqrt_disc = np.sqrt(disc3)
        sqrt_a = np.sqrt(a3)

        def antiderivative(u: float) -> np.ndarray:
            s = np.sqrt(np.maximum(a3 * u * u + b3 * u + c3, 0.0))
            return (2.0 * a3 * u + b3) / (4.0 * a3) * s + disc3 / (
                8.0 * a3 * sqrt_a
            ) * np.arcsinh((2.0 * a3 * u + b3) / sqrt_disc)

        out[case3] = antiderivative(1.0) - antiderivative(0.0)
    return out


# --------------------------------------------------------------------- #
# Point-to-chord distances for the error sweeps
# --------------------------------------------------------------------- #


def chord_point_distances(
    px: np.ndarray,
    py: np.ndarray,
    ax: np.ndarray | float,
    ay: np.ndarray | float,
    bx: np.ndarray | float,
    by: np.ndarray | float,
) -> np.ndarray:
    """Batch distances from points to closed segments ``a``–``b``.

    The chord ends broadcast against the points: floats measure every
    point against one chord, arrays give point ``i`` its own chord.
    """
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    rx = px - ax
    ry = py - ay
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.clip((rx * abx + ry * aby) / denom, 0.0, 1.0)
    # u = 0 on a zero-length chord leaves dx = rx and dy = ry exactly,
    # the mirror's degenerate branch.
    u = np.where(denom == 0.0, 0.0, u)
    dx = rx - u * abx
    dy = ry - u * aby
    return np.sqrt(dx * dx + dy * dy)


def chord_point_distance_py(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Scalar reference mirror of :func:`chord_point_distances`."""
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    rx = px - ax
    ry = py - ay
    if denom == 0.0:
        return math.sqrt(rx * rx + ry * ry)
    u = min(max((rx * abx + ry * aby) / denom, 0.0), 1.0)
    dx = rx - u * abx
    dy = ry - u * aby
    return math.sqrt(dx * dx + dy * dy)


def chord_line_distances(
    px: np.ndarray,
    py: np.ndarray,
    ax: np.ndarray | float,
    ay: np.ndarray | float,
    bx: np.ndarray | float,
    by: np.ndarray | float,
) -> np.ndarray:
    """Batch distances from points to the infinite lines through ``a``–``b``.

    Chord ends broadcast as in :func:`chord_point_distances`.
    """
    abx = bx - ax
    aby = by - ay
    norm = np.sqrt(abx * abx + aby * aby)
    rx = px - ax
    ry = py - ay
    with np.errstate(divide="ignore", invalid="ignore"):
        across = np.abs(rx * aby - ry * abx) / norm
    return np.where(norm == 0.0, np.sqrt(rx * rx + ry * ry), across)


def chord_line_distance_py(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Scalar reference mirror of :func:`chord_line_distances`."""
    abx = bx - ax
    aby = by - ay
    norm = math.sqrt(abx * abx + aby * aby)
    rx = px - ax
    ry = py - ay
    if norm == 0.0:
        return math.sqrt(rx * rx + ry * ry)
    return abs(rx * aby - ry * abx) / norm


# --------------------------------------------------------------------- #
# Sweeps: one question per call, answered on the side its length selects
# --------------------------------------------------------------------- #


def _sweep_arrays(
    columns: Columns, arrays: Arrays | None, start: int, end: int
) -> tuple[Arrays, int, int]:
    """The numpy columns a sweep over points ``start``..``end`` runs on,
    and the sweep's ends on them: the caller's arrays as they are, or
    (a streaming window holds lists only) just the slice it reads."""
    if arrays is not None:
        return arrays, start, end
    span = slice(start, end + 1)
    t, x, y = (np.array(column[span]) for column in columns)
    return (t, x, y), 0, end - start


def _chord_distances(
    columns: Columns, arrays: Arrays | None, start: int, end: int, criterion: str
) -> np.ndarray:
    """Criterion distance (``"synchronized"`` or ``"perpendicular"``) of
    every interior point of the chord ``start``–``end``, as one kernel."""
    (t, x, y), start, end = _sweep_arrays(columns, arrays, start, end)
    if criterion == "perpendicular":
        return perp_distances(x, y, start, end)
    return sync_distances(t, x, y, start, end)


def _chord_distances_py(
    columns: Columns, start: int, end: int, criterion: str
) -> list[float]:
    """Scalar mirror of :func:`_chord_distances`."""
    t, x, y = columns
    if criterion == "perpendicular":
        return perp_distances_py(x, y, start, end)
    return sync_distances_py(t, x, y, start, end)


def chord_max(
    columns: Columns,
    start: int,
    end: int,
    criterion: str = "synchronized",
    arrays: Arrays | None = None,
) -> tuple[float, int]:
    """Max criterion distance over the interior of the chord ``start``–``end``.

    The top-down split test and the bottom-up merge cost. ``columns``
    are the ``(t, x, y)`` lists; ``arrays``, when the caller has them,
    the same columns as numpy arrays. Returns ``(max_distance, index)``,
    the index (into the columns) of the first interior point attaining
    it. Needs ``end - start >= 2``.
    """
    if end - start - 1 < _NUMPY_MIN_SWEEP:
        values = _chord_distances_py(columns, start, end, criterion)
        error, offset = max_with_offset_py(values)
    else:
        error, offset = max_with_offset(
            _chord_distances(columns, arrays, start, end, criterion)
        )
    return error, start + 1 + offset


def chord_first_above(
    columns: Columns,
    start: int,
    end: int,
    threshold: float,
    criterion: str = "synchronized",
    arrays: Arrays | None = None,
) -> int:
    """First interior point of the chord ``start``–``end`` whose criterion
    distance exceeds ``threshold`` (its index into the columns), or ``-1``.

    The opening-window scan. Columns as for :func:`chord_max`.
    """
    if end - start - 1 < _NUMPY_MIN_SWEEP:
        values = _chord_distances_py(columns, start, end, criterion)
        offset = first_above_py(values, threshold)
    else:
        offset = first_above(
            _chord_distances(columns, arrays, start, end, criterion), threshold
        )
    return -1 if offset < 0 else start + 1 + offset


def chord_indices_above(
    columns: Columns,
    start: int,
    end: int,
    threshold: float,
    criterion: str = "synchronized",
    arrays: Arrays | None = None,
) -> list[int]:
    """Every interior point of the chord ``start``–``end`` whose criterion
    distance exceeds ``threshold``, as ascending indices into the columns.

    Columns as for :func:`chord_max`.
    """
    if end - start - 1 < _NUMPY_MIN_SWEEP:
        values = _chord_distances_py(columns, start, end, criterion)
        offsets = [i for i, value in enumerate(values) if value > threshold]
    else:
        values_arr = _chord_distances(columns, arrays, start, end, criterion)
        offsets = np.flatnonzero(values_arr > threshold).tolist()
    return [start + 1 + offset for offset in offsets]


def speed_jumps_above(
    columns: Columns,
    start: int,
    end: int,
    threshold: float,
    arrays: Arrays | None = None,
) -> list[int]:
    """Every point ``start < i < end`` whose speed jump
    ``|v_i - v_{i-1}|`` exceeds ``threshold``, as ascending indices.

    The SP speed test (paper Sect. 3.3) over one run of interior points:
    ``v_i`` is the derived speed of segment ``(i, i+1)``, so the run
    reads points ``start``..``end``. Columns as for :func:`chord_max`;
    the scalar side computes each speed once, in
    :func:`segment_speeds_py`'s terms.
    """
    if end - start - 1 < _NUMPY_MIN_SWEEP:
        t, x, y = columns
        dx = x[start + 1] - x[start]
        dy = y[start + 1] - y[start]
        v_prev = math.sqrt(dx * dx + dy * dy) / (t[start + 1] - t[start])
        out = []
        for i in range(start + 1, end):
            dx = x[i + 1] - x[i]
            dy = y[i + 1] - y[i]
            v_next = math.sqrt(dx * dx + dy * dy) / (t[i + 1] - t[i])
            if abs(v_next - v_prev) > threshold:
                out.append(i)
            v_prev = v_next
        return out
    (t_arr, x_arr, y_arr), first, last = _sweep_arrays(columns, arrays, start, end)
    run = slice(first, last + 1)
    jumps = speed_deltas(t_arr[run], x_arr[run], y_arr[run])
    return (np.flatnonzero(jumps > threshold) + (start + 1)).tolist()


def range_max(values: np.ndarray, start: int, end: int) -> tuple[float, int]:
    """``(max, index)`` of ``values[start:end]``, the index of its first
    occurrence counted in ``values``. Needs ``end > start``."""
    if end - start < _NUMPY_MIN_SWEEP:
        best, offset = max_with_offset_py(values[start:end].tolist())
    else:
        best, offset = max_with_offset(values[start:end])
    return best, start + offset


def _distance_integral_py(
    deltas: Sequence[Sequence[float]], weights: Sequence[float]
) -> float:
    return math.fsum(
        weights[i] * segment_mean_distance_py(deltas[i], deltas[i + 1])
        for i in range(len(weights))
    )


def distance_integral(deltas: np.ndarray, weights: np.ndarray) -> float:
    """``∫ |d(t)| dt`` for a difference vector linear between samples.

    ``deltas`` (shape ``(k + 1, 2)``) holds ``d`` at the interval ends
    and ``weights`` (shape ``(k,)``) the interval durations: the result
    is ``Σ weights[i] * mean|d|`` over interval ``i``, summed with
    ``math.fsum`` (exactly rounded, so both sides agree to the bit).
    This is the numerator of the paper's α (Sect. 4.2).
    """
    if weights.size < _NUMPY_MIN_SWEEP:
        return _distance_integral_py(deltas.tolist(), weights.tolist())
    alphas = segment_mean_distances(deltas[:-1], deltas[1:])
    return math.fsum((weights * alphas).tolist())


def chord_integral(
    columns: Columns, start: int, end: int, arrays: Arrays | None = None
) -> float:
    """Error integral of the chord ``start``–``end`` over its original span.

    ``∫ dist(loc(p, t), chord(t)) dt`` over ``[t_start, t_end]``, in
    closed form per original sub-segment: the chord and the original are
    both linear there, so the difference vector is too. Columns as for
    :func:`chord_max`.
    """
    if end - start < _NUMPY_MIN_SWEEP:
        t_list, x_list, y_list = columns
        ts = t_list[start]
        delta_e = t_list[end] - ts
        xs, ys = x_list[start], y_list[start]
        ex, ey = x_list[end] - xs, y_list[end] - ys
        deltas = []
        for i in range(start, end + 1):
            ratio = (t_list[i] - ts) / delta_e
            deltas.append(
                (x_list[i] - (xs + ratio * ex), y_list[i] - (ys + ratio * ey))
            )
        weights = [t_list[i + 1] - t_list[i] for i in range(start, end)]
        return _distance_integral_py(deltas, weights)
    (t, x, y), start, end = _sweep_arrays(columns, arrays, start, end)
    ts = t[start]
    delta_e = t[end] - ts
    span = slice(start, end + 1)
    ratio = (t[span] - ts) / delta_e
    dx = x[span] - (x[start] + ratio * (x[end] - x[start]))
    dy = y[span] - (y[start] + ratio * (y[end] - y[start]))
    return distance_integral(
        np.column_stack((dx, dy)), t[start + 1 : end + 1] - t[start:end]
    )
