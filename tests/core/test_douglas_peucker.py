"""Tests for the Douglas-Peucker baseline (NDP)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DouglasPeucker
from repro.core.douglas_peucker import (
    perpendicular_segment_error,
    top_down_indices,
    top_down_indices_recursive,
)
from repro.error import max_perpendicular_error
from repro.exceptions import ThresholdError
from repro.trajectory import Trajectory


@pytest.fixture
def spike() -> Trajectory:
    """A straight run with one large spike at index 2."""
    return Trajectory.from_points(
        [(0, 0, 0), (10, 100, 1), (20, 200, 80), (30, 300, -1), (40, 400, 0)]
    )


class TestSegmentError:
    def test_finds_the_spike(self, spike):
        error, cut = perpendicular_segment_error(spike, 0, 4)
        assert cut == 2
        assert error == pytest.approx(80.0, rel=0.01)


class TestDouglasPeucker:
    def test_keeps_spike_above_threshold(self, spike):
        result = DouglasPeucker(epsilon=50.0).compress(spike)
        assert 2 in result.indices

    def test_drops_spike_below_threshold(self, spike):
        result = DouglasPeucker(epsilon=100.0).compress(spike)
        np.testing.assert_array_equal(result.indices, [0, 4])

    def test_straight_line_collapses_to_endpoints(self, straight_line):
        result = DouglasPeucker(epsilon=1.0).compress(straight_line)
        np.testing.assert_array_equal(result.indices, [0, len(straight_line) - 1])

    def test_threshold_bounds_max_line_error(self, urban_trajectory):
        for eps in (15.0, 40.0, 90.0):
            approx = DouglasPeucker(epsilon=eps).compress(urban_trajectory).compressed
            assert (
                max_perpendicular_error(urban_trajectory, approx, to_segment=False)
                <= eps + 1e-9
            )

    def test_monotone_compression_in_threshold(self, urban_trajectory):
        kept = [
            DouglasPeucker(epsilon=eps).compress(urban_trajectory).n_kept
            for eps in (10.0, 30.0, 60.0, 120.0)
        ]
        assert kept == sorted(kept, reverse=True)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ThresholdError):
            DouglasPeucker(epsilon=0.0)

    def test_iterative_and_recursive_agree(self, urban_trajectory, zigzag):
        for traj in (urban_trajectory, zigzag):
            for eps in (10.0, 35.0, 80.0):
                iterative = top_down_indices(traj, eps, perpendicular_segment_error)
                recursive = top_down_indices_recursive(
                    traj, eps, perpendicular_segment_error
                )
                np.testing.assert_array_equal(iterative, recursive)

    def test_handles_duplicate_positions(self):
        # Stationary object: all positions identical -> everything is
        # within any threshold of the (degenerate) chord.
        traj = Trajectory.from_points([(i, 5.0, 5.0) for i in range(6)])
        result = DouglasPeucker(epsilon=1.0).compress(traj)
        np.testing.assert_array_equal(result.indices, [0, 5])

    def test_paper_fig1_style_recursion(self):
        """A series engineered to recurse like the paper's Fig. 1: the
        first chord is cut, then sub-chords are cut again."""
        t = np.arange(0.0, 9.0)
        y = np.array([0.0, 6.0, 0.0, -6.0, 0.0, 30.0, 0.0, 5.0, 0.0])
        traj = Trajectory(t, np.column_stack([t * 10.0, y]))
        result = DouglasPeucker(epsilon=4.0).compress(traj)
        assert 5 in result.indices  # the big bump
        assert result.n_kept > 3  # recursion continued into the halves
