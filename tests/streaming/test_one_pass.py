"""Tests for the one-pass error-bounded compressors (OPERB, CISED).

The two families share a state machine (anchor + last + velocity-space
feasible region) and differ only in the region geometry: OPERB clips an
axis-aligned rectangle, CISED a convex polygon. The load-bearing claims
tested here:

* **Soundness** — the reconstructed trajectory never deviates from the
  original by more than epsilon under the synchronized (SED) metric.
* **Streaming ≡ batch** — the push-based compressor emits exactly the
  fixes the batch replay retains, on both engines.
* **O(1) state** — per-session memory is a small constant independent
  of stream length (the whole point of one-pass over opening-window).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import CISED, OPERB, PolygonRegion, RectangleRegion
from repro.error import max_synchronized_error
from repro.exceptions import StreamError
from repro.streaming import (
    OnlineCompressor,
    PointStream,
    StreamingCISED,
    StreamingOPERB,
    available_online_compressors,
    make_online_compressor,
)
from repro.trajectory import Trajectory
from repro.types import Fix

from tests.conftest import trajectories

EPSILON = 25.0

#: Upper bound on ``state_size`` for any one-pass compressor: anchor fix
#: (3 floats) + last fix (3 floats) + region (rectangle: 4 floats;
#: polygon: one half-plane offset per edge, default m=16).
STATE_CEILING = 3 + 3 + 16


def drain(compressor: OnlineCompressor, traj: Trajectory) -> list[Fix]:
    out: list[Fix] = []
    for fix in PointStream.from_trajectory(traj):
        out.extend(compressor.push(fix))
    out.extend(compressor.finish())
    return out


def reconstruct(fixes: list[Fix]) -> Trajectory:
    return Trajectory.from_points([(f.t, f.x, f.y) for f in fixes])


def make_streaming(name: str) -> OnlineCompressor:
    return make_online_compressor(f"{name}:epsilon={EPSILON}")


class TestErrorBound:
    """SED soundness: the defining guarantee of both algorithms."""

    @pytest.mark.parametrize("name", ["operb", "cised"])
    @settings(max_examples=50, deadline=None)
    @given(traj=trajectories(min_points=2, max_points=50))
    def test_sed_bound_holds(self, name, traj):
        emitted = drain(make_streaming(name), traj)
        assert max_synchronized_error(traj, reconstruct(emitted)) <= EPSILON + 1e-6

    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_sed_bound_on_realistic_trip(self, name, urban_trajectory):
        emitted = drain(make_streaming(name), urban_trajectory)
        approx = reconstruct(emitted)
        assert max_synchronized_error(urban_trajectory, approx) <= EPSILON + 1e-6
        # And the compressor actually compresses a realistic trip
        # (at epsilon=25 it drops well over a third of the 90 fixes).
        assert len(emitted) < len(urban_trajectory) * 2 / 3

    def test_straight_line_fully_compressed(self, straight_line):
        for name in ("operb", "cised"):
            emitted = drain(make_streaming(name), straight_line)
            assert len(emitted) == 2, name


class TestBatchEquivalence:
    """The batch classes replay the identical one-pass state machine."""

    @pytest.mark.parametrize(
        ("batch_cls", "streaming_cls"),
        [(OPERB, StreamingOPERB), (CISED, StreamingCISED)],
        ids=["operb", "cised"],
    )
    @settings(max_examples=30, deadline=None)
    @given(traj=trajectories(min_points=2, max_points=40))
    def test_streaming_matches_batch(self, batch_cls, streaming_cls, traj):
        batch_times = traj.t[batch_cls(epsilon=EPSILON).compress(traj).indices]
        emitted = drain(streaming_cls(epsilon=EPSILON), traj)
        np.testing.assert_array_equal([f.t for f in emitted], batch_times)


class TestConstantState:
    """O(1) per-session memory, the headline property vs opening-window."""

    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_state_bounded_on_long_stream(self, name):
        rng = np.random.default_rng(7)
        compressor = make_streaming(name)
        t, x, y = 0.0, 0.0, 0.0
        for _ in range(10_000):
            t += 1.0
            x += rng.normal(0.0, 12.0)
            y += rng.normal(0.0, 12.0)
            compressor.push(Fix(t, x, y))
            assert compressor.state_size <= STATE_CEILING
        compressor.finish()

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_state_bounded_on_100k_stream(self, name):
        rng = np.random.default_rng(7)
        compressor = make_streaming(name)
        peak = 0
        t, x, y = 0.0, 0.0, 0.0
        for _ in range(100_000):
            t += 1.0
            x += rng.normal(0.0, 12.0)
            y += rng.normal(0.0, 12.0)
            compressor.push(Fix(t, x, y))
            peak = max(peak, compressor.state_size)
        compressor.finish()
        assert peak <= STATE_CEILING
        assert compressor.n_pushed == 100_000

    def test_operb_state_is_ten_floats(self):
        # anchor (3) + last (3) + rectangle (4): nothing grows.
        compressor = StreamingOPERB(epsilon=EPSILON)
        for i in range(100):
            compressor.push(Fix(float(i), float(i * 3 % 17), float(i * 5 % 13)))
            assert compressor.state_size <= 10


class TestProtocol:
    """Every registered online algorithm satisfies OnlineCompressor."""

    @pytest.mark.parametrize("name", sorted(["operb", "cised"]))
    def test_isinstance_protocol(self, name):
        assert isinstance(make_streaming(name), OnlineCompressor)

    def test_all_registered_names_satisfy_protocol(self):
        for name in available_online_compressors():
            if name in ("squish", "sttrace"):
                spec = f"{name}:budget=10"
            else:
                spec = f"{name}:epsilon=30"
                if name == "opw-sp":
                    spec += ",speed=5"
            compressor = make_online_compressor(spec)
            assert isinstance(compressor, OnlineCompressor), name

    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_counters(self, name, urban_trajectory):
        compressor = make_streaming(name)
        emitted = drain(compressor, urban_trajectory)
        assert compressor.n_pushed == len(urban_trajectory)
        assert compressor.n_emitted == len(emitted)

    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_first_fix_emitted_immediately(self, name):
        out = make_streaming(name).push(Fix(0.0, 1.0, 2.0))
        assert list(out) == [Fix(0.0, 1.0, 2.0)]

    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_finish_idempotent_and_closed(self, name):
        compressor = make_streaming(name)
        assert not compressor.closed
        compressor.push(Fix(0.0, 0.0, 0.0))
        compressor.push(Fix(1.0, 5.0, 0.0))
        tail = compressor.finish()
        assert compressor.closed
        assert [f.t for f in tail] == [1.0]
        assert compressor.finish() == []

    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_finish_on_empty(self, name):
        assert make_streaming(name).finish() == []

    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_push_after_finish_raises(self, name):
        compressor = make_streaming(name)
        compressor.finish()
        with pytest.raises(StreamError, match="finish"):
            compressor.push(Fix(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_backwards_time_raises(self, name):
        compressor = make_streaming(name)
        compressor.push(Fix(1.0, 0.0, 0.0))
        with pytest.raises(StreamError, match="backwards"):
            compressor.push(Fix(0.5, 0.0, 0.0))

    @pytest.mark.parametrize("name", ["operb", "cised"])
    def test_sync_error_bound(self, name):
        assert make_streaming(name).sync_error_bound() == EPSILON

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingOPERB(epsilon=-1.0)
        with pytest.raises(ValueError, match="m"):
            StreamingCISED(epsilon=10.0, m=2)


class TestRegions:
    """Geometry units: the feasible-region primitives themselves."""

    def test_rectangle_inscribed_in_disc(self):
        region = RectangleRegion(3.0, 4.0, 2.0)
        half = 2.0 * math.sqrt(0.5)
        for x, y in [(3.0 + half, 4.0 + half), (3.0 - half, 4.0 - half)]:
            assert region.contains(x, y)
            # Corners sit exactly on the disc of radius 2 around (3, 4).
            assert math.hypot(x - 3.0, y - 4.0) == pytest.approx(2.0)
        assert not region.contains(3.0 + 2.0, 4.0)  # on the disc, off the square

    def test_rectangle_clip_shrinks(self):
        region = RectangleRegion(0.0, 0.0, 2.0)
        region.clip(1.0, 0.0, 2.0)
        assert region.contains(0.5, 0.0)
        assert not region.contains(-1.4, 0.0)  # cut off by the second square

    def test_rectangle_empty_after_disjoint_clip(self):
        region = RectangleRegion(0.0, 0.0, 1.0)
        region.clip(100.0, 0.0, 1.0)
        assert not region.contains(0.0, 0.0)
        assert not region.contains(100.0, 0.0)

    def test_polygon_covers_more_of_disc_than_rectangle(self):
        # A regular 16-gon inscribed in the unit disc contains points the
        # inscribed square misses — the reason CISED out-compresses OPERB.
        poly = PolygonRegion(0.0, 0.0, 1.0, 16)
        rect = RectangleRegion(0.0, 0.0, 1.0)
        probe = (0.9, 0.0)  # near the disc boundary on an axis
        assert poly.contains(*probe)
        assert not rect.contains(*probe)

    def test_polygon_clip_to_empty(self):
        poly = PolygonRegion(0.0, 0.0, 1.0, 16)
        poly.clip(100.0, 0.0, 1.0)
        # The offsets now describe an empty region: no point is inside.
        assert not poly.contains(0.0, 0.0)
        assert not poly.contains(50.0, 0.0)
        assert not poly.contains(100.0, 0.0)

    def test_polygon_state_constant_under_clipping(self):
        # m half-plane offsets, no matter how many discs are intersected.
        rng = np.random.default_rng(3)
        poly = PolygonRegion(0.0, 0.0, 10.0, 16)
        assert poly.state_size == 16
        for _ in range(200):
            poly.clip(rng.normal(0.0, 0.1), rng.normal(0.0, 0.1), 10.0)
        assert poly.state_size == 16

    def test_polygon_clip_is_exact_mgon_intersection(self):
        # Intersecting two discs' inscribed 8-gons via clip() must agree
        # with a region built from either disc and clipped by the other,
        # point for point: offsets are the exact intersection, there is
        # no approximation loss from clipping order.
        a = PolygonRegion(0.0, 0.0, 2.0, 8)
        a.clip(1.0, 0.5, 2.0)
        b = PolygonRegion(1.0, 0.5, 2.0, 8)
        b.clip(0.0, 0.0, 2.0)
        rng = np.random.default_rng(11)
        for _ in range(500):
            x, y = rng.uniform(-2.5, 3.5), rng.uniform(-2.5, 3.0)
            assert a.contains(x, y) == b.contains(x, y)

    def test_cised_m_controls_fidelity(self, urban_trajectory):
        # More polygon edges → better disc approximation → fewer points.
        coarse = drain(StreamingCISED(epsilon=EPSILON, m=4), urban_trajectory)
        fine = drain(StreamingCISED(epsilon=EPSILON, m=24), urban_trajectory)
        assert len(fine) <= len(coarse)
