"""Tests for paper Eqs. 1-2: the scalar synchronized position of
repro.geometry.interpolation and the synchronized distances and derived
speeds that repro.core.kernels sweeps."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels import segment_speeds, sync_distances
from repro.geometry import time_ratio_position


def synchronized_distances(t, xy, start, end):
    return sync_distances(t, xy[:, 0], xy[:, 1], start, end)


class TestTimeRatioPosition:
    def test_midpoint_in_time_is_midpoint_in_space(self):
        pos = time_ratio_position(0.0, [0, 0], 10.0, [100, 40], 5.0)
        np.testing.assert_allclose(pos, [50, 20])

    def test_at_start_and_end(self):
        np.testing.assert_allclose(
            time_ratio_position(0.0, [1, 2], 10.0, [3, 4], 0.0), [1, 2]
        )
        np.testing.assert_allclose(
            time_ratio_position(0.0, [1, 2], 10.0, [3, 4], 10.0), [3, 4]
        )

    def test_unequal_time_ratio(self):
        # 2 of 10 seconds elapsed -> 20% of the way.
        pos = time_ratio_position(0.0, [0, 0], 10.0, [50, 100], 2.0)
        np.testing.assert_allclose(pos, [10, 20])

    def test_zero_duration_chord_returns_start(self):
        pos = time_ratio_position(5.0, [7, 8], 5.0, [100, 100], 5.0)
        np.testing.assert_allclose(pos, [7, 8])

    def test_extrapolation_is_linear(self):
        pos = time_ratio_position(0.0, [0, 0], 10.0, [10, 0], 20.0)
        np.testing.assert_allclose(pos, [20, 0])

    @given(st.floats(0.0, 1.0))
    def test_vectorized_matches_scalar(self, frac):
        """The kernels' vectorized Eqs. 1-2 put a point at the scalar
        synchronized position at zero synchronized distance."""
        ts, te = 3.0, 13.0
        ps, pe = np.array([-5.0, 2.0]), np.array([45.0, -18.0])
        ti = ts + frac * (te - ts)
        pos = time_ratio_position(ts, ps, te, pe, ti)
        xy = np.array([ps, pos, pe])
        dist = synchronized_distances(np.array([ts, ti, te]), xy, 0, 2)
        np.testing.assert_allclose(dist, [0.0], atol=1e-9)


class TestSynchronizedDistances:
    def test_constant_velocity_has_zero_distance(self):
        t = np.array([0.0, 10.0, 20.0, 30.0])
        xy = np.column_stack([t * 3.0, t * -2.0])
        dist = synchronized_distances(t, xy, 0, 3)
        np.testing.assert_allclose(dist, 0.0, atol=1e-9)

    def test_detour_point_measured_synchronously(self):
        # Object goes 0 -> 100 in 10 s but was at (50, 30) at t=5: the
        # synchronized position is (50, 0), so the distance is 30 (the
        # perpendicular distance happens to agree here).
        t = np.array([0.0, 5.0, 10.0])
        xy = np.array([[0.0, 0.0], [50.0, 30.0], [100.0, 0.0]])
        dist = synchronized_distances(t, xy, 0, 2)
        np.testing.assert_allclose(dist, [30.0])

    def test_time_skew_differs_from_perpendicular(self):
        # The object dwells: at t=9 it is still at x=10. Synchronized
        # position at t=9 is x=90 -> distance 80, while the perpendicular
        # distance to the chord is 0.
        t = np.array([0.0, 9.0, 10.0])
        xy = np.array([[0.0, 0.0], [10.0, 0.0], [100.0, 0.0]])
        dist = synchronized_distances(t, xy, 0, 2)
        np.testing.assert_allclose(dist, [80.0])

    def test_empty_for_adjacent_chord(self):
        t = np.array([0.0, 1.0])
        xy = np.zeros((2, 2))
        assert synchronized_distances(t, xy, 0, 1).size == 0


class TestSegmentSpeeds:
    def test_known_speeds(self):
        t = np.array([0.0, 10.0, 20.0])
        xy = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 50.0]])
        np.testing.assert_allclose(segment_speeds(t, *xy.T), [10.0, 5.0])

    def test_stationary_segment_zero_speed(self):
        t = np.array([0.0, 5.0])
        xy = np.array([[3.0, 3.0], [3.0, 3.0]])
        np.testing.assert_allclose(segment_speeds(t, *xy.T), [0.0])

    def test_irregular_sampling(self):
        t = np.array([0.0, 1.0, 11.0])
        xy = np.array([[0.0, 0.0], [6.0, 8.0], [6.0, 8.0]])
        np.testing.assert_allclose(segment_speeds(t, *xy.T), [10.0, 0.0])
