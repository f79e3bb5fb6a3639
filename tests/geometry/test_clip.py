"""Tests for repro.geometry.clip (Liang-Barsky)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import BBox
from repro.geometry.clip import clip_segment_to_bbox, segment_intersects_bbox

BOX = BBox(0.0, 0.0, 10.0, 10.0)


class TestSegmentIntersectsBBox:
    def test_fully_inside(self):
        assert segment_intersects_bbox([2, 2], [8, 8], BOX)

    def test_crossing_through(self):
        assert segment_intersects_bbox([-5, 5], [15, 5], BOX)

    def test_clipping_a_corner(self):
        assert segment_intersects_bbox([-1, 8], [3, 12], BOX)

    def test_fully_outside_one_side(self):
        assert not segment_intersects_bbox([12, 0], [12, 10], BOX)

    def test_diagonal_miss_near_corner(self):
        assert not segment_intersects_bbox([11, 10], [10, 11.5], BOX)

    def test_touching_edge_counts(self):
        assert segment_intersects_bbox([10, 2], [15, 2], BOX)

    def test_degenerate_point_inside(self):
        assert segment_intersects_bbox([5, 5], [5, 5], BOX)

    def test_degenerate_point_outside(self):
        assert not segment_intersects_bbox([50, 5], [50, 5], BOX)

    def test_vertical_segment_spanning(self):
        assert segment_intersects_bbox([5, -5], [5, 15], BOX)

    def test_segment_ending_an_ulp_before_the_box_misses(self):
        """The clipping divisions round (1100 + 1e-14 is 1100), so a
        segment ending one ulp short of the box once counted as a hit."""
        box = BBox(math.nextafter(100.0, math.inf), 0.0, 200.0, 10.0)
        assert not segment_intersects_bbox([-1000.0, 5.0], [100.0, 5.0], box)
        assert not segment_intersects_bbox([-1000.0, 3.0], [100.0, 7.0], box)
        touching = BBox(100.0, 0.0, 200.0, 10.0)
        assert segment_intersects_bbox([-1000.0, 5.0], [100.0, 5.0], touching)

    @given(
        st.floats(-200, 200, allow_nan=False),
        st.floats(-200, 200, allow_nan=False),
        st.floats(-200, 200, allow_nan=False),
        st.floats(-200, 200, allow_nan=False),
    )
    def test_hits_lie_inside_the_segment_bbox(self, x0, y0, x1, y1):
        """Every bbox prefilter is a superset: a hit implies the
        segment's own closed bbox meets the box."""
        if segment_intersects_bbox([x0, y0], [x1, y1], BOX):
            assert BBox.of_points(np.array([[x0, y0], [x1, y1]])).intersects(BOX)


class TestClipInterval:
    def test_full_crossing_interval(self):
        interval = clip_segment_to_bbox(np.array([-10.0, 5.0]), np.array([20.0, 5.0]), BOX)
        assert interval is not None
        u0, u1 = interval
        assert u0 == pytest.approx(10 / 30)
        assert u1 == pytest.approx(20 / 30)

    def test_inside_interval_is_unit(self):
        interval = clip_segment_to_bbox(np.array([1.0, 1.0]), np.array([9.0, 9.0]), BOX)
        assert interval == (0.0, 1.0)

    def test_miss_returns_none(self):
        assert clip_segment_to_bbox(np.array([20.0, 0.0]), np.array([30.0, 0.0]), BOX) is None

    @given(
        st.floats(-20, 20, allow_nan=False),
        st.floats(-20, 20, allow_nan=False),
        st.floats(-20, 20, allow_nan=False),
        st.floats(-20, 20, allow_nan=False),
    )
    def test_interval_endpoints_inside_box(self, x0, y0, x1, y1):
        """Wherever clipping succeeds, the clipped points lie in the box."""
        p0 = np.array([x0, y0])
        p1 = np.array([x1, y1])
        interval = clip_segment_to_bbox(p0, p1, BOX)
        if interval is None:
            return
        for u in interval:
            point = p0 + u * (p1 - p0)
            assert BOX.expanded(1e-6).contains_point(point[0], point[1])
