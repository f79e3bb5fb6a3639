"""Edge-case tests for geometry branches not covered elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import BBox
from repro.geometry.clip import clip_segment_to_bbox


class TestClipDegenerateAxes:
    def test_axis_parallel_inside_band(self):
        box = BBox(0, 0, 10, 10)
        # Horizontal segment inside the y-band, overhanging in x.
        interval = clip_segment_to_bbox(
            np.array([-5.0, 5.0]), np.array([5.0, 5.0]), box
        )
        assert interval is not None
        assert interval[0] == pytest.approx(0.5)

    def test_axis_parallel_outside_band(self):
        box = BBox(0, 0, 10, 10)
        assert (
            clip_segment_to_bbox(np.array([-5.0, 50.0]), np.array([5.0, 50.0]), box)
            is None
        )


class TestBBoxUnionChains:
    def test_union_all_single(self):
        box = BBox(1, 2, 3, 4)
        assert BBox.union_all([box]) == box

    def test_union_is_commutative(self):
        a = BBox(0, 0, 1, 1)
        b = BBox(5, -2, 6, 0)
        assert a.union(b) == b.union(a)
