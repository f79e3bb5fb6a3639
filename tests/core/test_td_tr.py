"""Tests for TD-TR (paper Sect. 3.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import DouglasPeucker, TDTR
from repro.core.td_tr import synchronized_segment_error
from repro.error import max_synchronized_error, mean_synchronized_error
from repro.trajectory import Trajectory

from tests.conftest import trajectories


@pytest.fixture
def dwell() -> Trajectory:
    """Geometrically straight but with a long dwell in the middle.

    Spatial DP sees a perfect line and discards everything; the
    synchronized view sees a 400 m timing deviation at index 2.
    """
    return Trajectory.from_points(
        [(0, 0, 0), (10, 100, 0), (110, 150, 0), (120, 250, 0), (130, 350, 0),
         (140, 450, 0), (150, 550, 0)]
    )


class TestSynchronizedSegmentError:
    def test_detects_time_skew_on_straight_line(self, dwell):
        error, cut = synchronized_segment_error(dwell, 0, len(dwell) - 1)
        assert error > 100.0  # large synchronized deviation
        # ... where spatial DP sees (almost) nothing:
        from repro.core.douglas_peucker import perpendicular_segment_error

        perp_error, _ = perpendicular_segment_error(dwell, 0, len(dwell) - 1)
        assert perp_error == pytest.approx(0.0, abs=1e-9)


class TestTDTR:
    def test_keeps_dwell_points_ndp_drops(self, dwell):
        ndp = DouglasPeucker(epsilon=30.0).compress(dwell)
        tdtr = TDTR(epsilon=30.0).compress(dwell)
        np.testing.assert_array_equal(ndp.indices, [0, len(dwell) - 1])
        assert tdtr.n_kept > 2

    def test_sed_bound_invariant(self, urban_trajectory):
        """TD-TR's core guarantee: continuous max synchronized error is
        bounded by the threshold."""
        for eps in (15.0, 40.0, 90.0):
            approx = TDTR(epsilon=eps).compress(urban_trajectory).compressed
            assert max_synchronized_error(urban_trajectory, approx) <= eps + 1e-9

    def test_constant_velocity_collapses(self, straight_line):
        result = TDTR(epsilon=1.0).compress(straight_line)
        np.testing.assert_array_equal(result.indices, [0, len(straight_line) - 1])

    def test_traversals_agree(self, urban_trajectory):
        iterative = TDTR(epsilon=40.0, traversal="iterative").compress(urban_trajectory)
        recursive = TDTR(epsilon=40.0, traversal="recursive").compress(urban_trajectory)
        np.testing.assert_array_equal(iterative.indices, recursive.indices)

    @settings(max_examples=40, deadline=None)
    @given(trajectories(min_points=3, max_points=30))
    def test_property_sed_bound(self, traj):
        eps = 25.0
        approx = TDTR(epsilon=eps).compress(traj).compressed
        assert max_synchronized_error(traj, approx) <= eps + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(trajectories(min_points=3, max_points=30))
    def test_property_mean_error_bounded_by_threshold(self, traj):
        eps = 25.0
        approx = TDTR(epsilon=eps).compress(traj).compressed
        assert mean_synchronized_error(traj, approx) <= eps + 1e-6

    def test_better_sync_error_than_ndp_at_same_threshold(self, small_dataset):
        """The paper's headline Fig. 7 relation on a small dataset."""
        eps = 50.0
        tdtr_err = np.mean(
            [
                mean_synchronized_error(t, TDTR(epsilon=eps).compress(t).compressed)
                for t in small_dataset
            ]
        )
        ndp_err = np.mean(
            [
                mean_synchronized_error(
                    t, DouglasPeucker(epsilon=eps).compress(t).compressed
                )
                for t in small_dataset
            ]
        )
        assert tdtr_err < ndp_err
