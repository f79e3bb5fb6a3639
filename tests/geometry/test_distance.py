"""Tests for the planar distance math and the great-circle distance.

The point and point-to-chord distances are the chord kernels of
:mod:`repro.core.kernels` (each scalar mirror beside its numpy kernel);
:func:`repro.geometry.haversine` is the spherical distance of the GPS
ingest path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.kernels import (
    chord_line_distance_py,
    chord_line_distances,
    chord_point_distance_py,
    chord_point_distances,
)
from repro.geometry import haversine

from tests.conftest import vectors2


def line_distance(p, a, b) -> float:
    return chord_line_distance_py(p[0], p[1], a[0], a[1], b[0], b[1])


def segment_distance(p, a, b) -> float:
    return chord_point_distance_py(p[0], p[1], a[0], a[1], b[0], b[1])


def point_distance(p, q) -> float:
    """Plain point distance: the distance to a zero-length chord."""
    return segment_distance(p, q, q)


class TestEuclidean:
    def test_pythagorean_triple(self):
        assert point_distance([0, 0], [3, 4]) == 5.0

    def test_zero_distance(self):
        assert point_distance([2.5, -1.0], [2.5, -1.0]) == 0.0

    def test_many_matches_scalar(self):
        """Per-point zero-length chords: row-by-row point distances."""
        a = np.array([[0.0, 0.0], [1.0, 1.0], [-3.0, 2.0]])
        b = np.array([[3.0, 4.0], [1.0, 1.0], [0.0, -2.0]])
        many = chord_point_distances(a[:, 0], a[:, 1], b[:, 0], b[:, 1], b[:, 0], b[:, 1])
        for i in range(3):
            assert many[i] == point_distance(a[i], b[i])
        np.testing.assert_allclose(many, [5.0, 0.0, 5.0])

    @given(vectors2(), vectors2())
    def test_symmetry(self, p, q):
        assert point_distance(p, q) == pytest.approx(point_distance(q, p))

    @given(vectors2(), vectors2(), vectors2())
    def test_triangle_inequality(self, a, b, c):
        assert point_distance(a, c) <= point_distance(a, b) + point_distance(b, c) + 1e-9


class TestHaversine:
    def test_zero(self):
        assert haversine(5.0, 52.0, 5.0, 52.0) == 0.0

    def test_one_degree_latitude(self):
        # One degree of latitude is about 111.2 km anywhere.
        d = haversine(6.0, 52.0, 6.0, 53.0)
        assert d == pytest.approx(111_195, rel=0.01)

    def test_longitude_shrinks_with_latitude(self):
        at_equator = haversine(0.0, 0.0, 1.0, 0.0)
        at_52n = haversine(0.0, 52.0, 1.0, 52.0)
        assert at_52n == pytest.approx(at_equator * math.cos(math.radians(52)), rel=0.01)

    def test_antipodal_is_half_circumference(self):
        d = haversine(0.0, 0.0, 180.0, 0.0)
        assert d == pytest.approx(math.pi * 6_371_008.8, rel=1e-6)


class TestPerpendicularDistance:
    def test_point_above_horizontal_line(self):
        assert line_distance([5, 3], [0, 0], [10, 0]) == pytest.approx(3.0)

    def test_point_beyond_segment_still_uses_line(self):
        # Perpendicular distance is to the infinite line, not the segment.
        assert line_distance([20, 4], [0, 0], [10, 0]) == pytest.approx(4.0)

    def test_degenerate_chord_falls_back_to_point_distance(self):
        assert line_distance([3, 4], [0, 0], [0, 0]) == pytest.approx(5.0)

    def test_vectorized_matches_scalar(self):
        pts = np.array([[1.0, 2.0], [5.0, -3.0], [9.0, 0.5]])
        a, b = np.array([0.0, 0.0]), np.array([10.0, 10.0])
        batch = chord_line_distances(pts[:, 0], pts[:, 1], *a, *b)
        for i, p in enumerate(pts):
            assert batch[i] == line_distance(p, a, b)

    @given(vectors2(), vectors2(), vectors2())
    def test_nonnegative(self, p, a, b):
        assert line_distance(p, a, b) >= 0.0

    @given(vectors2(), vectors2())
    def test_point_on_line_is_zero(self, a, b):
        midpoint = (a + b) / 2.0
        assert line_distance(midpoint, a, b) == pytest.approx(0.0, abs=1e-6)


class TestPointSegmentDistance:
    def test_interior_projection_equals_perpendicular(self):
        assert segment_distance([5, 3], [0, 0], [10, 0]) == pytest.approx(3.0)

    def test_beyond_end_measures_to_endpoint(self):
        assert segment_distance([13, 4], [0, 0], [10, 0]) == pytest.approx(5.0)

    def test_before_start_measures_to_start(self):
        assert segment_distance([-3, 4], [0, 0], [10, 0]) == pytest.approx(5.0)

    def test_degenerate_segment(self):
        assert segment_distance([3, 4], [1, 1], [1, 1]) == pytest.approx(
            math.hypot(2, 3)
        )

    def test_vectorized_matches_scalar(self):
        pts = np.array([[-5.0, 1.0], [5.0, 5.0], [15.0, -2.0]])
        a, b = np.array([0.0, 0.0]), np.array([10.0, 0.0])
        batch = chord_point_distances(pts[:, 0], pts[:, 1], *a, *b)
        for i, p in enumerate(pts):
            assert batch[i] == segment_distance(p, a, b)

    @given(vectors2(), vectors2(), vectors2())
    def test_segment_distance_at_least_line_distance(self, p, a, b):
        seg = segment_distance(p, a, b)
        line = line_distance(p, a, b)
        assert seg >= line - 1e-9


@given(
    st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=8),
    vectors2(100.0),
    vectors2(100.0),
)
def test_perpendicular_invariant_under_translation(points, a, b):
    """Distances are translation invariant (for non-degenerate chords)."""
    assume(float(np.hypot(*(b - a))) > 1e-6)
    pts = np.asarray(points, dtype=float)
    shift = np.array([37.5, -12.25])
    d1 = chord_line_distances(pts[:, 0], pts[:, 1], *a, *b)
    moved = pts + shift
    d2 = chord_line_distances(moved[:, 0], moved[:, 1], *(a + shift), *(b + shift))
    np.testing.assert_allclose(d1, d2, atol=1e-8)
