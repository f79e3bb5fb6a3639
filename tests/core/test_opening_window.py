"""Tests for the opening-window algorithms (NOPW / BOPW)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BOPW, NOPW, OpeningWindow
from repro.error import max_perpendicular_error, mean_synchronized_error
from repro.trajectory import Trajectory


def opening_window(
    traj: Trajectory, strategy: str = "violating", epsilon: float = 30.0
) -> np.ndarray:
    """The core's batch form with the spatial criterion."""
    return OpeningWindow(
        traj.column_lists,
        traj.columns,
        criterion="perpendicular",
        epsilon=epsilon,
        strategy=strategy,
    ).indices()


@pytest.fixture
def two_spikes() -> Trajectory:
    """Straight run with spikes at indices 3 and 7."""
    t = np.arange(0.0, 100.0, 10.0)
    y = np.array([0.0, 1.0, -1.0, 60.0, 0.0, 1.0, -1.0, 55.0, 0.0, 1.0])
    return Trajectory(t, np.column_stack([t * 10.0, y]))


class TestDriver:
    def test_always_keeps_endpoints(self, two_spikes):
        idx = opening_window(two_spikes)
        assert idx[0] == 0
        assert idx[-1] == len(two_spikes) - 1

    def test_rejects_unknown_strategy(self, two_spikes):
        with pytest.raises(ValueError, match="strategy"):
            opening_window(two_spikes, "middle")

    def test_nopw_breaks_at_violating_point(self, two_spikes):
        idx = opening_window(two_spikes, "violating")
        assert 3 in idx and 7 in idx

    def test_bopw_breaks_before_float(self):
        # One spike at index 3: window [0..4] sees the violation when the
        # float reaches 4, so BOPW cuts at 3's successor's predecessor —
        # i.e. float-1 = 3 here; with a later float the cut lands before
        # the violator. Use a longer flat tail to show the difference.
        t = np.arange(0.0, 120.0, 10.0)
        y = np.zeros(12)
        y[3] = 60.0
        traj = Trajectory(t, np.column_stack([t * 10.0, y]))
        nopw_idx = opening_window(traj, "violating")
        bopw_idx = opening_window(traj, "before-float")
        assert 3 in nopw_idx
        # BOPW cuts at float-1: the violation first fires when the float
        # is 4 (first window containing the spike as interior), so cut=3.
        assert 3 in bopw_idx

    def test_straight_line_single_segment(self, straight_line):
        idx = opening_window(straight_line, epsilon=5.0)
        np.testing.assert_array_equal(idx, [0, len(straight_line) - 1])


class TestNOPWvsBOPW:
    def test_bopw_compresses_at_least_as_much(self, urban_trajectory):
        """The paper's Fig. 8 shape: BOPW keeps fewer (or equal) points."""
        for eps in (20.0, 40.0, 80.0):
            nopw = NOPW(epsilon=eps).compress(urban_trajectory)
            bopw = BOPW(epsilon=eps).compress(urban_trajectory)
            assert bopw.n_kept <= nopw.n_kept

    def test_bopw_worse_or_equal_sync_error(self, small_dataset):
        """Fig. 8's other half, averaged over a few trajectories."""
        eps = 40.0
        nopw_errors = []
        bopw_errors = []
        for traj in small_dataset:
            nopw_errors.append(
                mean_synchronized_error(traj, NOPW(epsilon=eps).compress(traj).compressed)
            )
            bopw_errors.append(
                mean_synchronized_error(traj, BOPW(epsilon=eps).compress(traj).compressed)
            )
        assert float(np.mean(bopw_errors)) >= float(np.mean(nopw_errors)) * 0.9

    def test_nopw_segments_respect_threshold(self, urban_trajectory):
        """Each emitted NOPW segment was validated against its own chord,
        so the max perpendicular distance of any point to its covering
        chord stays within the threshold."""
        eps = 35.0
        approx = NOPW(epsilon=eps).compress(urban_trajectory).compressed
        assert (
            max_perpendicular_error(urban_trajectory, approx, to_segment=False)
            <= eps + 1e-9
        )

    def test_three_point_trajectory(self):
        traj = Trajectory.from_points([(0, 0, 0), (1, 10, 50), (2, 20, 0)])
        for compressor in (NOPW(epsilon=5.0), BOPW(epsilon=5.0)):
            idx = compressor.compress(traj).indices
            np.testing.assert_array_equal(idx, [0, 1, 2])

    def test_online_flag(self):
        assert NOPW(epsilon=10.0).online
        assert BOPW(epsilon=10.0).online
