"""Model-based (stateful) testing of the trajectory store.

A hypothesis :class:`RuleBasedStateMachine` drives random sequences of
inserts, replaces, appends and removes against both the real
:class:`~repro.storage.TrajectoryStore` and a trivially correct in-memory
oracle, then checks that every query the store answers agrees with the
oracle. This is the test that catches interaction bugs (index not
updated on replace, cache serving a removed object, ...) that scripted
unit tests miss.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.geometry import BBox
from repro.geometry.clip import segment_intersects_bbox
from repro.storage import TrajectoryStore
from repro.trajectory import Trajectory

OBJECT_IDS = [f"obj-{i}" for i in range(5)]


def make_trajectory(seed: int, start: float, n: int) -> Trajectory:
    rng = np.random.default_rng(seed)
    t = start + np.cumsum(rng.uniform(1.0, 20.0, size=n))
    xy = np.cumsum(rng.uniform(-80.0, 80.0, size=(n, 2)), axis=0)
    return Trajectory(t, xy)


def oracle_passes_through(traj: Trajectory, box: BBox) -> bool:
    if len(traj) == 1:
        return box.contains_point(float(traj.x[0]), float(traj.y[0]))
    return any(
        segment_intersects_bbox(traj.xy[i], traj.xy[i + 1], box)
        for i in range(len(traj) - 1)
    )


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # No ingest compressor: the oracle then holds exactly the stored
        # geometry (modulo codec quantization, which the coarse query
        # geometry below is insensitive to).
        self.store = TrajectoryStore(cache_size=2)
        self.oracle: dict[str, Trajectory] = {}
        self.counter = 0

    @rule(
        object_id=st.sampled_from(OBJECT_IDS),
        n=st.integers(2, 12),
        start=st.floats(0.0, 1_000.0),
    )
    def insert_or_replace(self, object_id: str, n: int, start: float) -> None:
        self.counter += 1
        traj = make_trajectory(self.counter, start, n)
        self.store.insert(traj, object_id=object_id, replace=True)
        self.oracle[object_id] = traj

    @precondition(lambda self: self.oracle)
    @rule(data=st.data(), n=st.integers(2, 8))
    def append(self, data, n: int) -> None:
        object_id = data.draw(st.sampled_from(sorted(self.oracle)))
        self.counter += 1
        old = self.oracle[object_id]
        continuation = make_trajectory(self.counter, old.end_time + 5.0, n)
        continuation = continuation.shifted(
            dx=float(old.xy[-1, 0]), dy=float(old.xy[-1, 1])
        )
        self.store.append(object_id, continuation)
        self.oracle[object_id] = Trajectory(
            np.concatenate([old.t, continuation.t]),
            np.concatenate([old.xy, continuation.xy]),
            object_id,
        )

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def remove(self, data) -> None:
        object_id = data.draw(st.sampled_from(sorted(self.oracle)))
        self.store.remove(object_id)
        del self.oracle[object_id]

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def check_get_roundtrip(self, data) -> None:
        object_id = data.draw(st.sampled_from(sorted(self.oracle)))
        stored = self.store.get(object_id)
        truth = self.oracle[object_id]
        assert len(stored) == len(truth)
        np.testing.assert_allclose(stored.t, truth.t, atol=1e-3)
        np.testing.assert_allclose(stored.xy, truth.xy, atol=1e-2)

    @rule(t0=st.floats(0.0, 1_500.0), span=st.floats(1.0, 500.0))
    def check_time_window(self, t0: float, span: float) -> None:
        t1 = t0 + span
        expected = sorted(
            key
            for key, traj in self.oracle.items()
            if traj.start_time <= t1 and traj.end_time >= t0
        )
        assert self.store.query_time_window(t0, t1) == expected

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def check_time_window_on_stored_endpoints(self, data) -> None:
        """Closed boundaries and point windows: a window that starts or
        ends exactly on a stored (decoded) endpoint matches, one that
        stops an ulp short does not."""
        object_id = data.draw(st.sampled_from(sorted(self.oracle)))
        decoded = {key: self.store.get(key) for key in self.oracle}
        spans = {key: (traj.start_time, traj.end_time) for key, traj in decoded.items()}
        start, end = spans[object_id]
        windows = [
            (start, start),
            (end, end),
            (start - 50.0, start),
            (end, end + 50.0),
            (start - 50.0, math.nextafter(start, -math.inf)),
            (math.nextafter(end, math.inf), end + 50.0),
        ]
        for index, (t0, t1) in enumerate(windows):
            expected = sorted(
                key for key, (lo, hi) in spans.items() if lo <= t1 and hi >= t0
            )
            assert (object_id in expected) == (index < 4)
            assert self.store.query_time_window(t0, t1) == expected

    @rule(
        cx=st.floats(-500.0, 500.0),
        cy=st.floats(-500.0, 500.0),
        half=st.floats(10.0, 400.0),
    )
    def check_bbox_query(self, cx: float, cy: float, half: float) -> None:
        box = BBox(cx - half, cy - half, cx + half, cy + half)
        expected = sorted(
            key
            for key, traj in self.oracle.items()
            if oracle_passes_through(traj, box)
        )
        assert self.store.query_bbox(box) == expected

    @invariant()
    def catalog_matches_oracle(self) -> None:
        assert self.store.object_ids() == sorted(self.oracle)
        assert len(self.store) == len(self.oracle)


StoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestStoreModel = StoreMachine.TestCase
