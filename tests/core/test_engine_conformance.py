"""Differential conformance: the numpy kernels vs their scalar mirrors.

:mod:`repro.core.kernels` runs every sweep as a scalar loop or a numpy
kernel depending on the sweep's length, so one compression mixes both
sides. This suite forces each side for every sweep — by patching the
kernels' cutoff to zero (always numpy) or past any length (always
scalar) — and drives both over randomized trajectories, including
grid-snapped inputs where zero-length and exactly collinear segments are
common. It requires *identical* retained indices plus *bit-identical*
error reports. Any one-ulp drift between a kernel and its scalar mirror
shows up here as a flaky index flip long before it would corrupt an
experiment. A dense trip whose sweeps fall on both sides of the cutoff
checks that the shipped mix equals both forced sides.

Duplicate timestamps are excluded by construction (the Trajectory
constructor rejects them); duplicate *positions* are deliberately common.
"""

from __future__ import annotations

import dataclasses
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OpeningWindow, kernels
from repro.core.registry import COMPRESSORS, available_compressors, make_compressor
from repro.datagen import URBAN, TrajectoryGenerator
from repro.error.metrics import evaluate_compression
from repro.streaming import available_online_compressors, make_online_compressor
from repro.trajectory import Trajectory
from repro.types import Fix

#: Cutoff values that force one side of :mod:`repro.core.kernels` for
#: every sweep.
SIDES = {"numpy": 0, "scalar": sys.maxsize}


def on_side(side: str, function, *args):
    """``function(*args)`` with every kernel sweep forced to ``side``."""
    with mock.patch.object(kernels, "_NUMPY_MIN_SWEEP", SIDES[side]):
        return function(*args)

#: One fixed, representative parameterization per registered algorithm.
#: Thresholds sit mid-scale for the coordinate lattice below, so both
#: "keep" and "drop" branches are exercised constantly.
ALGORITHM_PARAMS: dict[str, dict] = {
    "ndp": {"epsilon": 25.0},
    "td-tr": {"epsilon": 25.0},
    "nopw": {"epsilon": 25.0},
    "bopw": {"epsilon": 25.0},
    "opw-tr": {"epsilon": 25.0},
    "operb": {"epsilon": 25.0},
    "cised": {"epsilon": 25.0},
    "opw-sp": {"max_dist_error": 25.0, "max_speed_error": 4.0},
    "td-sp": {"max_dist_error": 25.0, "max_speed_error": 4.0},
    "every-ith": {"step": 3},
    "distance-threshold": {"epsilon": 25.0},
    "angular": {"max_angle_rad": 0.5},
    "sliding-window": {"epsilon": 25.0},
    "bottom-up": {"epsilon": 25.0},
    "td-tr-budget": {"budget": 6},
    "bottom-up-budget": {"budget": 6},
    "bottom-up-total-error": {"max_mean_error": 12.0},
    "dead-reckoning": {"epsilon": 25.0},
}


def test_every_registered_compressor_is_covered():
    """A new registry entry must join the conformance matrix."""
    assert set(ALGORITHM_PARAMS) == set(COMPRESSORS)


@st.composite
def conformance_trajectories(
    draw: st.DrawFn, min_points: int = 2, max_points: int = 24
) -> Trajectory:
    """Trajectories biased toward degenerate geometry.

    Coordinates live on a coarse 50 m lattice, so repeated positions
    (zero-length segments), exactly collinear runs, and exact threshold
    ties all occur routinely. Time gaps come from a small menu, keeping
    timestamps strictly increasing (duplicate timestamps are invalid
    input, rejected by the Trajectory constructor).
    """
    n = draw(st.integers(min_points, max_points))
    gaps = draw(
        st.lists(
            st.sampled_from([0.5, 1.0, 2.5, 10.0]), min_size=n - 1, max_size=n - 1
        )
    )
    t = np.concatenate([[0.0], np.cumsum(gaps)]) if n > 1 else np.array([0.0])
    coords = draw(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=n,
            max_size=n,
        )
    )
    return Trajectory(t, np.asarray(coords, dtype=float) * 50.0)


@st.composite
def float_trajectories(draw: st.DrawFn) -> Trajectory:
    """Trajectories with arbitrary float coordinates and time gaps.

    The lattice above makes ties common; these make every last bit of
    a distance depend on the expression that computed it, so a mirror
    that drifts from its kernel by one ulp (``hypot`` for
    ``sqrt(dx*dx + dy*dy)``, a reordered sum) differs here on most
    inputs.
    """
    n = draw(st.integers(3, 40))
    gaps = draw(st.lists(st.floats(0.01, 100.0), min_size=n - 1, max_size=n - 1))
    coords = draw(
        st.lists(
            st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
            min_size=n,
            max_size=n,
        )
    )
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    return Trajectory(t, np.asarray(coords, dtype=float))


@settings(max_examples=200, deadline=None)
@given(traj=float_trajectories())
def test_mirrors_bit_identical_to_kernels(traj: Trajectory):
    """Value by value, every scalar mirror equals its numpy kernel."""
    t, x, y = traj.columns
    tl, xl, yl = traj.column_lists
    n = len(traj)
    for start, end in ((0, n - 1), (0, n // 2 + 1), (n // 3, n - 1)):
        if end - start < 2:
            continue
        assert kernels.sync_distances(t, x, y, start, end).tolist() == (
            kernels.sync_distances_py(tl, xl, yl, start, end)
        )
        ends = ((tl[start], xl[start], yl[start]), (tl[end], xl[end], yl[end]))
        assert kernels.sync_distances(t, x, y, start, end).tolist() == [
            kernels.sync_distance_py(ends[0], (tl[i], xl[i], yl[i]), ends[1])
            for i in range(start + 1, end)
        ]
        assert kernels.perp_distances(x, y, start, end).tolist() == (
            kernels.perp_distances_py(xl, yl, start, end)
        )
    assert kernels.segment_speeds(t, x, y).tolist() == kernels.segment_speeds_py(tl, xl, yl)
    assert kernels.speed_deltas(t, x, y).tolist() == kernels.speed_deltas_py(tl, xl, yl)
    # The speed question's two sides, over the whole run and a part.
    for start, end in ((0, n - 1), (n // 3, n - 1)):
        if end - start < 2:
            continue
        threshold = float(np.median(kernels.speed_deltas(t, x, y)))
        question = (kernels.speed_jumps_above, (tl, xl, yl), start, end, threshold)
        assert on_side("scalar", *question) == on_side("numpy", *question)
    deltas = np.column_stack((x - x[0], y[::-1] - y[0]))
    assert kernels.segment_mean_distances(deltas[:-1], deltas[1:]).tolist() == [
        kernels.segment_mean_distance_py(v0, v1)
        for v0, v1 in zip(deltas[:-1].tolist(), deltas[1:].tolist())
    ]
    chord = (xl[0], yl[0], xl[-1], yl[-1])
    assert kernels.chord_point_distances(x, y, *chord).tolist() == [
        kernels.chord_point_distance_py(px, py, *chord) for px, py in zip(xl, yl)
    ]
    assert kernels.chord_line_distances(x, y, *chord).tolist() == [
        kernels.chord_line_distance_py(px, py, *chord) for px, py in zip(xl, yl)
    ]
    # One chord per point, as perpendicular_deltas sweeps them; every
    # third chord has zero length.
    bx, by = np.roll(x, 2), np.roll(y, 2)
    bx[::3], by[::3] = x[::3], y[::3]
    per_point = (np.roll(x, 1), np.roll(y, 1), x, y, bx, by)
    rows = list(zip(*(column.tolist() for column in per_point)))
    assert kernels.chord_point_distances(*per_point).tolist() == [
        kernels.chord_point_distance_py(*row) for row in rows
    ]
    assert kernels.chord_line_distances(*per_point).tolist() == [
        kernels.chord_line_distance_py(*row) for row in rows
    ]


@pytest.mark.parametrize("name", sorted(ALGORITHM_PARAMS))
@settings(max_examples=200, deadline=None)
@given(traj=conformance_trajectories())
def test_engines_select_identical_indices(name: str, traj: Trajectory):
    compressor = make_compressor(name, **ALGORITHM_PARAMS[name])
    np.testing.assert_array_equal(
        on_side("numpy", compressor.select_indices, traj),
        on_side("scalar", compressor.select_indices, traj),
        err_msg=f"{name}: sides disagree",
    )


def assert_reports_identical(left, right) -> None:
    for field in dataclasses.fields(left):
        a, b = getattr(left, field.name), getattr(right, field.name)
        assert a == b, f"{field.name}: {a!r} != {b!r}"


@settings(max_examples=200, deadline=None)
@given(traj=conformance_trajectories(min_points=4))
def test_error_reports_bit_identical(traj: Trajectory):
    """evaluate_compression is bit-identical across the two sides.

    Uses TD-TR output as the approximation under test; the report spans
    every error notion in the package (synchronized, perpendicular,
    speed), so this transitively pins all five metric functions.
    """
    approx = make_compressor("td-tr", epsilon=25.0).compress(traj).compressed
    assert_reports_identical(
        on_side("numpy", evaluate_compression, traj, approx),
        on_side("scalar", evaluate_compression, traj, approx),
    )


@pytest.mark.parametrize("name", sorted(ALGORITHM_PARAMS))
def test_engines_agree_on_realistic_trip(name: str, urban_trajectory):
    """Dense realistic data, not just lattice geometry."""
    compressor = make_compressor(name, **ALGORITHM_PARAMS[name])
    np.testing.assert_array_equal(
        on_side("numpy", compressor.select_indices, urban_trajectory),
        on_side("scalar", compressor.select_indices, urban_trajectory),
        err_msg=f"{name}: sides disagree on urban trip",
    )


@pytest.fixture(scope="module")
def straddling_trip() -> Trajectory:
    """An urban trip resampled to 1,000 fixes about a second apart.

    Its top-down spans and opening windows run from a few points to
    hundreds, so every shipped compression here runs sweeps on both
    sides of the kernels' cutoff.
    """
    trip = TrajectoryGenerator(seed=11).generate(URBAN, object_id="straddle")
    return trip.resample((trip.end_time - trip.start_time) / 999)


def test_straddling_trip_runs_both_sides(straddling_trip):
    """Guard for the case below: the shipped path really mixes sides."""
    for name in ("td-tr", "opw-tr"):
        compressor = make_compressor(name, **ALGORITHM_PARAMS[name])
        with mock.patch.object(
            kernels, "sync_distances", wraps=kernels.sync_distances
        ) as vectorized, mock.patch.object(
            kernels, "sync_distances_py", wraps=kernels.sync_distances_py
        ) as scalar:
            compressor.select_indices(straddling_trip)
        assert vectorized.call_count > 0 and scalar.call_count > 0, name


@pytest.mark.parametrize("name", sorted(ALGORITHM_PARAMS))
def test_shipped_path_equals_both_sides(name: str, straddling_trip):
    compressor = make_compressor(name, **ALGORITHM_PARAMS[name])
    shipped = compressor.select_indices(straddling_trip)
    for side in SIDES:
        np.testing.assert_array_equal(
            shipped,
            on_side(side, compressor.select_indices, straddling_trip),
            err_msg=f"{name}: shipped path differs from forced {side}",
        )


def test_shipped_report_equals_both_sides(straddling_trip):
    approx = make_compressor("td-tr", epsilon=25.0).compress(straddling_trip)
    shipped = evaluate_compression(approx)
    for side in SIDES:
        assert_reports_identical(shipped, on_side(side, evaluate_compression, approx))


def streamed(spec: str, traj: Trajectory) -> list[float]:
    """Times of the fixes the push compressor ``spec`` emits over ``traj``."""
    compressor = make_online_compressor(spec)
    emitted: list[Fix] = []
    for fix in zip(*traj.column_lists):
        emitted.extend(compressor.push(Fix(*fix)))
    emitted.extend(compressor.finish())
    return [fix.t for fix in emitted]


def window_with_cap(traj: Trajectory) -> np.ndarray:
    """Batch form of streaming OPW-TR capped at 100 points per window."""
    return OpeningWindow(
        traj.column_lists,
        traj.columns,
        criterion="synchronized",
        epsilon=25.0,
        max_window=100,
    ).indices()


#: The spec each algorithm with a batch and an online form streams; its
#: batch form is built from the same string.
TWIN_SPECS = {
    "nopw": "nopw:epsilon=25",
    "opw-tr": "opw-tr:epsilon=25",
    "opw-sp": "opw-sp:epsilon=25,speed=4",
    "operb": "operb:epsilon=25",
    "cised": "cised:epsilon=25",
    "dead-reckoning": "dead-reckoning:epsilon=25",
}
#: Streaming OPW-TR under a window cap; its batch form is ``window_with_cap``.
CAPPED_SPEC = "opw-tr:epsilon=25,max_window=100"


def test_every_two_form_algorithm_is_paired():
    """A new algorithm with both forms must join the case below."""
    both = set(available_compressors()) & set(available_online_compressors())
    assert set(TWIN_SPECS) == both


def test_straddling_trip_streams_on_both_sides(straddling_trip):
    """Guard for the case below: streaming windows run both sides too."""
    for spec, kernel in (
        ("opw-tr:epsilon=25", "sync_distances"),
        ("nopw:epsilon=25", "perp_distances"),
    ):
        with mock.patch.object(
            kernels, kernel, wraps=getattr(kernels, kernel)
        ) as vectorized, mock.patch.object(
            kernels, f"{kernel}_py", wraps=getattr(kernels, f"{kernel}_py")
        ) as scalar:
            streamed(spec, straddling_trip)
        assert vectorized.call_count > 0 and scalar.call_count > 0, spec


@pytest.mark.parametrize("spec", sorted([*TWIN_SPECS.values(), CAPPED_SPEC]))
@pytest.mark.parametrize("side", ["shipped", *SIDES])
def test_streaming_equals_batch_on_each_side(spec: str, side: str, straddling_trip):
    if spec == CAPPED_SPEC:
        batch_indices = window_with_cap(straddling_trip)
    else:
        batch_indices = make_compressor(spec).select_indices(straddling_trip)
    batch_times = straddling_trip.t[batch_indices]
    if side == "shipped":
        times = streamed(spec, straddling_trip)
    else:
        times = on_side(side, streamed, spec, straddling_trip)
    np.testing.assert_array_equal(times, batch_times, err_msg=f"{spec} on {side}")
