"""Tests for push-based online compression."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import NOPW, OPWSP, OPWTR
from repro.exceptions import StreamError
from repro.streaming import PointStream, StreamingOPW, make_online_compressor
from repro.trajectory import Trajectory
from repro.types import Fix

from tests.conftest import trajectories


def drain(compressor: StreamingOPW, traj: Trajectory) -> list[Fix]:
    out: list[Fix] = []
    for fix in PointStream.from_trajectory(traj):
        out.extend(compressor.push(fix))
    out.extend(compressor.finish())
    return out


class TestBatchEquivalence:
    @pytest.mark.parametrize(
        "batch,online_kwargs",
        [
            (NOPW(epsilon=35.0), dict(epsilon=35.0, criterion="perpendicular")),
            (OPWTR(epsilon=35.0), dict(epsilon=35.0, criterion="synchronized")),
            (
                OPWSP(max_dist_error=35.0, max_speed_error=4.0),
                dict(epsilon=35.0, criterion="synchronized", max_speed_error=4.0),
            ),
        ],
        ids=["nopw", "opw-tr", "opw-sp"],
    )
    def test_identical_selection(self, batch, online_kwargs, urban_trajectory):
        batch_times = urban_trajectory.t[batch.compress(urban_trajectory).indices]
        emitted = drain(StreamingOPW(**online_kwargs), urban_trajectory)
        np.testing.assert_array_equal([f.t for f in emitted], batch_times)

    @settings(max_examples=25, deadline=None)
    @given(trajectories(min_points=2, max_points=30))
    def test_property_equivalence_opw_tr(self, traj):
        batch_times = traj.t[OPWTR(epsilon=20.0).compress(traj).indices]
        emitted = drain(StreamingOPW(20.0, "synchronized"), traj)
        np.testing.assert_array_equal([f.t for f in emitted], batch_times)

    @settings(max_examples=25, deadline=None)
    @given(trajectories(min_points=2, max_points=30))
    def test_property_equivalence_opw_sp(self, traj):
        batch_times = traj.t[OPWSP(max_dist_error=20.0, max_speed_error=5.0).compress(traj).indices]
        streaming = StreamingOPW(20.0, "synchronized", max_speed_error=5.0)
        emitted = drain(streaming, traj)
        np.testing.assert_array_equal([f.t for f in emitted], batch_times)


def straddling_trajectory(criterion: str) -> tuple[Trajectory, float]:
    """Three fixes and an epsilon on which the middle fix's distance
    straddles: ``math.hypot`` and the kernels' ``sqrt(dx*dx + dy*dy)``
    differ in the last bit, and epsilon is the smaller of the two."""
    rng = np.random.default_rng(7)
    while True:
        px, py, bx, by = (float(v) for v in rng.uniform(-1000.0, 1000.0, 4))
        if criterion == "synchronized":
            # The chord returns to the anchor, so the middle fix's
            # synchronized point is the origin.
            bx = by = 0.0
            values = {math.hypot(px, py), math.sqrt(px * px + py * py)}
        else:
            cross = abs(px * by - py * bx)
            values = {cross / math.hypot(bx, by), cross / math.sqrt(bx * bx + by * by)}
        if len(values) == 2:
            traj = Trajectory.from_points([(0.0, 0.0, 0.0), (1.0, px, py), (2.0, bx, by)])
            return traj, min(values)


class TestDistanceOnEpsilon:
    @pytest.mark.parametrize(
        "batch,criterion",
        [(NOPW, "perpendicular"), (OPWTR, "synchronized")],
        ids=["nopw", "opw-tr"],
    )
    def test_streaming_decides_as_the_batch_twin(self, batch, criterion):
        traj, epsilon = straddling_trajectory(criterion)
        batch_times = traj.t[batch(epsilon=epsilon).compress(traj).indices]
        emitted = drain(StreamingOPW(epsilon, criterion), traj)
        np.testing.assert_array_equal([f.t for f in emitted], batch_times)

    def test_speed_jump_on_threshold_decides_as_the_batch_twin(self):
        """The middle fix's speed jump is the speed threshold under the
        kernels' ``sqrt(dx*dx + dy*dy)`` and a few ulps above it under
        ``math.hypot``: both sides must keep only the endpoints."""
        traj = Trajectory.from_points(
            [
                (0.0, 0.0, 0.0),
                (1.0, 34.282295073918505, -87.19371235460054),
                (2.0, 51.64604925736347, 18.219916586263523),
            ]
        )
        speed = 13.143054345378616
        batch = OPWSP(max_dist_error=1e6, max_speed_error=speed)
        batch_times = traj.t[batch.compress(traj).indices]
        emitted = drain(
            make_online_compressor(f"opw-sp:epsilon=1e6,speed={speed!r}"), traj
        )
        np.testing.assert_array_equal([f.t for f in emitted], batch_times)
        np.testing.assert_array_equal(batch_times, [0.0, 2.0])


class TestStreamingBehaviour:
    def test_first_fix_emitted_immediately(self):
        opw = StreamingOPW(10.0)
        out = opw.push(Fix(0.0, 0.0, 0.0))
        assert out == [Fix(0.0, 0.0, 0.0)]

    def test_finish_emits_last_fix(self):
        opw = StreamingOPW(10.0)
        opw.push(Fix(0.0, 0.0, 0.0))
        opw.push(Fix(1.0, 10.0, 0.0))
        tail = opw.finish()
        assert tail == [Fix(1.0, 10.0, 0.0)]

    def test_finish_idempotent(self):
        opw = StreamingOPW(10.0)
        opw.push(Fix(0.0, 0.0, 0.0))
        opw.finish()
        assert opw.finish() == []

    def test_finish_on_empty(self):
        assert StreamingOPW(10.0).finish() == []

    def test_push_after_finish_raises(self):
        opw = StreamingOPW(10.0)
        opw.finish()
        with pytest.raises(StreamError, match="finish"):
            opw.push(Fix(0.0, 0.0, 0.0))

    def test_backwards_time_raises(self):
        opw = StreamingOPW(10.0)
        opw.push(Fix(1.0, 0.0, 0.0))
        with pytest.raises(StreamError, match="backwards"):
            opw.push(Fix(0.5, 0.0, 0.0))

    def test_counters(self, urban_trajectory):
        opw = StreamingOPW(35.0)
        emitted = drain(opw, urban_trajectory)
        assert opw.n_pushed == len(urban_trajectory)
        assert opw.n_emitted == len(emitted)

    def test_max_window_bounds_buffer(self, urban_trajectory):
        opw = StreamingOPW(1e9, max_window=8)  # huge eps: never violates
        for fix in PointStream.from_trajectory(urban_trajectory):
            opw.push(fix)
            assert opw.window_size <= 8
        opw.finish()

    def test_max_window_output_still_covers_stream(self, urban_trajectory):
        opw = StreamingOPW(1e9, max_window=8)
        emitted = drain(opw, urban_trajectory)
        assert emitted[0].t == urban_trajectory.start_time
        assert emitted[-1].t == urban_trajectory.end_time

    def test_validation(self):
        with pytest.raises(ValueError, match="criterion"):
            StreamingOPW(10.0, criterion="psychic")
        with pytest.raises(ValueError, match="max_window"):
            StreamingOPW(10.0, max_window=2)

    def test_sync_error_bound_reporting(self):
        assert StreamingOPW(25.0, "synchronized").sync_error_bound() == 25.0
        assert StreamingOPW(25.0, "perpendicular").sync_error_bound() is None

    @settings(max_examples=20, deadline=None)
    @given(trajectories(min_points=4, max_points=30))
    def test_max_window_keeps_sed_bound(self, traj):
        """Forced BOPW-style cuts still only close fully-validated
        segments, so the synchronized bound survives the memory cap."""
        from repro.error import max_synchronized_error
        from repro.trajectory import Trajectory as _T

        eps = 30.0
        opw = StreamingOPW(eps, "synchronized", max_window=4)
        emitted = drain(opw, traj)
        approx = _T.from_points([(f.t, f.x, f.y) for f in emitted])
        assert max_synchronized_error(traj, approx) <= eps + 1e-6

    @settings(max_examples=20, deadline=None)
    @given(trajectories(min_points=4, max_points=40))
    def test_max_window_never_exceeded(self, traj):
        opw = StreamingOPW(1e9, max_window=5)
        for fix in PointStream.from_trajectory(traj):
            opw.push(fix)
            assert opw.window_size <= 5
        opw.finish()


class TestFactory:
    def test_builds_each_kind(self):
        assert make_online_compressor("nopw", 10.0).criterion == "perpendicular"
        assert make_online_compressor("opw-tr", 10.0).criterion == "synchronized"
        sp = make_online_compressor("opw-sp", 10.0, max_speed_error=5.0)
        assert sp.max_speed_error == 5.0

    def test_rejects_wrong_speed_usage(self):
        with pytest.raises(ValueError):
            make_online_compressor("nopw", 10.0, max_speed_error=5.0)
        with pytest.raises(ValueError):
            make_online_compressor("opw-sp", 10.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_online_compressor("dp", 10.0)
