"""Budget-compressor tests: the deterministic priority-queue eviction core.

Hypothesis pins the contract the serve tier leans on — the budget is
never exceeded, eviction order is a pure function of the pushed series
(so WAL replay rebuilds sessions bit-identically), SQUISH-E priorities
only ever grow — plus the dead-reckoning differential against its batch
twin and the renegotiation surface.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernels import sync_distances_py
from repro.core.registry import make_compressor
from repro.exceptions import StreamError
from repro.streaming import (
    Eviction,
    StreamingDeadReckoning,
    StreamingSQUISH,
    StreamingSTTrace,
    make_online_compressor,
    partition_events,
)
from repro.streaming.budget import MIN_BUDGET, _sed
from repro.types import Fix

from tests.conftest import trajectories

BUDGET_CLASSES = [StreamingSQUISH, StreamingSTTrace]


@st.composite
def fix_streams(draw, min_size=2, max_size=40):
    """Strictly time-ordered fix streams with bounded coordinates."""
    n = draw(st.integers(min_size, max_size))
    gaps = draw(
        st.lists(
            st.floats(0.5, 30.0, allow_nan=False, allow_infinity=False),
            min_size=n - 1, max_size=n - 1,
        )
    )
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(-1_000.0, 1_000.0, allow_nan=False),
                st.floats(-1_000.0, 1_000.0, allow_nan=False),
            ),
            min_size=n, max_size=n,
        )
    )
    t = 0.0
    fixes = [Fix(0.0, *coords[0])]
    for gap, (x, y) in zip(gaps, coords[1:]):
        t += gap
        fixes.append(Fix(t, x, y))
    return fixes


def replay(compressor, fixes):
    """(net retained, evicted) after pushing all fixes and finishing."""
    retained: list[Fix] = []
    evicted: list[Fix] = []
    for fix in fixes:
        kept, gone = partition_events(compressor.push(fix))
        retained.extend(kept)
        evicted.extend(gone)
    kept, gone = partition_events(compressor.finish())
    retained.extend(kept)
    evicted.extend(gone)
    gone_times = {f.t for f in evicted}
    net = [f for f in retained if f.t not in gone_times]
    return net, evicted


def sed_against(path: list[Fix], fix: Fix) -> float:
    """Synchronized distance of ``fix`` to the piecewise path."""
    for pred, succ in zip(path, path[1:]):
        if pred.t <= fix.t <= succ.t:
            ratio = (fix.t - pred.t) / (succ.t - pred.t)
            px = pred.x + ratio * (succ.x - pred.x)
            py = pred.y + ratio * (succ.y - pred.y)
            return math.hypot(fix.x - px, fix.y - py)
    raise AssertionError(f"{fix} outside the retained span")


class TestBudgetInvariant:
    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    @settings(max_examples=60, deadline=None)
    @given(stream=fix_streams(), budget=st.integers(2, 8), data=st.data())
    def test_budget_never_exceeded(self, cls, stream, budget, data):
        compressor = cls(budget=budget)
        net: dict[float, Fix] = {}
        for fix in stream:
            for event in compressor.push(fix):
                if isinstance(event, Eviction):
                    assert event.fix.t in net, "evicted a non-retained point"
                    del net[event.fix.t]
                else:
                    net[event.t] = event
            # The invariant holds after *every* push, not just at close.
            assert len(net) <= budget
            assert compressor.buffer_len == len(net)
        kept, gone = partition_events(compressor.finish())
        for fix in gone:
            del net[fix.t]
        for fix in kept:
            net[fix.t] = fix
        assert len(net) <= budget
        # Event-derived state matches the compressor's own buffer.
        assert sorted(net) == [f.t for f, _ in compressor.buffer_snapshot()]

    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    @settings(max_examples=40, deadline=None)
    @given(stream=fix_streams(min_size=3), budget=st.integers(2, 6))
    def test_endpoints_always_retained(self, cls, stream, budget):
        net, _ = replay(cls(budget=budget), stream)
        assert net[0] == stream[0]
        assert net[-1] == stream[-1]
        times = [f.t for f in net]
        assert times == sorted(times)
        pushed = set(stream)
        assert all(f in pushed for f in net)

    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    def test_budget_below_minimum_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(budget=MIN_BUDGET - 1)


class TestDeterminism:
    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    # The recorder keeps one log per compressor, so sharing it across
    # examples is safe.
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(stream=fix_streams(max_size=30), budget=st.integers(2, 5))
    def test_eviction_order_is_a_pure_function_of_the_stream(
        self, cls, stream, budget, eviction_logs
    ):
        first = cls(budget=budget)
        second = cls(budget=budget)
        _, evicted_a = replay(first, stream)
        _, evicted_b = replay(second, stream)
        assert evicted_a == evicted_b
        assert eviction_logs.log(first) == eviction_logs.log(second)


class TestSquishPriorities:
    @settings(max_examples=200, deadline=None)
    @given(coords=st.lists(st.floats(-1e4, 1e4), min_size=6, max_size=6),
           spacing=st.tuples(st.floats(0.5, 60.0), st.floats(0.5, 60.0)))
    def test_sed_is_the_kernel_sync_distance(self, coords, spacing):
        """Priorities use the batch kernels' float expression, bit for bit."""
        t = [0.0, spacing[0], spacing[0] + spacing[1]]
        x, y = coords[0::2], coords[1::2]
        pred, point, succ = (Fix(t[i], x[i], y[i]) for i in range(3))
        assert _sed(pred, point, succ) == sync_distances_py(t, x, y, 0, 2)[0]

    @settings(max_examples=40, deadline=None)
    @given(stream=fix_streams(max_size=30), budget=st.integers(2, 5))
    def test_priorities_monotonically_non_decreasing(self, stream, budget):
        """SQUISH-E re-scoring uses max(): a priority never shrinks."""
        compressor = StreamingSQUISH(budget=budget)
        last: dict[float, float] = {}
        for fix in stream:
            compressor.push(fix)
            for point, priority in compressor.buffer_snapshot():
                if priority is None:
                    continue
                if point.t in last:
                    assert priority >= last[point.t] - 1e-9
                last[point.t] = priority

    def test_suffix_max_error_bound(self, eviction_logs):
        """SED of an evicted point wrt the final output is bounded by the
        largest eviction priority at-or-after its own eviction.

        (The per-point bound — its *own* priority — does not hold: errors
        compound across later evictions. The suffix max does.)
        """
        import numpy as np

        rng = np.random.default_rng(42)
        steps = rng.normal(0.0, 10.0, size=(300, 2))
        xy = np.cumsum(steps, axis=0)
        stream = [
            Fix(float(i), float(xy[i, 0]), float(xy[i, 1]))
            for i in range(300)
        ]
        compressor = StreamingSQUISH(budget=12)
        net, _ = replay(compressor, stream)
        log = eviction_logs.log(compressor)
        suffix_max = [0.0] * len(log)
        running = 0.0
        for i in range(len(log) - 1, -1, -1):
            running = max(running, log[i][1])
            suffix_max[i] = running
        for (fix, _), bound in zip(log, suffix_max):
            assert sed_against(net, fix) <= bound + 1e-6


class TestRenegotiate:
    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    def test_tightening_evicts_down_to_the_new_budget(self, cls):
        compressor = cls(budget=50)
        stream = [Fix(float(i), float(i % 7), float(i % 5)) for i in range(50)]
        for fix in stream:
            compressor.push(fix)
        events = compressor.renegotiate(10)
        assert all(isinstance(e, Eviction) for e in events)
        assert len(events) == 40
        assert compressor.buffer_len == 10
        assert compressor.budget == 10

    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    def test_relaxing_evicts_nothing(self, cls):
        compressor = cls(budget=5)
        for i in range(20):
            compressor.push(Fix(float(i), float(i), 0.0))
        assert compressor.renegotiate(50) == []
        assert compressor.budget == 50

    def test_renegotiate_validation(self):
        compressor = StreamingSQUISH(budget=5)
        with pytest.raises(ValueError):
            compressor.renegotiate(1)
        compressor.finish()
        with pytest.raises(StreamError):
            compressor.renegotiate(3)

    def test_renegotiated_eviction_order_matches_a_smaller_budget(self):
        """Tighten-later yields a valid budget-10 state (not necessarily
        the same as budget-10-from-the-start, but within budget and
        endpoint-preserving)."""
        stream = [
            Fix(float(i), math.sin(i / 3.0) * 100.0, float(i))
            for i in range(40)
        ]
        compressor = StreamingSQUISH(budget=40)
        for fix in stream:
            compressor.push(fix)
        compressor.renegotiate(10)
        snapshot = [f for f, _ in compressor.buffer_snapshot()]
        assert len(snapshot) == 10
        assert snapshot[0] == stream[0]
        assert snapshot[-1] == stream[-1]


class TestProtocolConformance:
    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    def test_push_after_finish_raises(self, cls):
        compressor = cls(budget=4)
        compressor.push(Fix(0.0, 0.0, 0.0))
        assert compressor.finish() == []
        assert compressor.closed
        with pytest.raises(StreamError):
            compressor.push(Fix(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    def test_time_must_advance(self, cls):
        compressor = cls(budget=4)
        compressor.push(Fix(5.0, 0.0, 0.0))
        with pytest.raises(StreamError):
            compressor.push(Fix(5.0, 1.0, 1.0))

    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    def test_finish_is_idempotent(self, cls):
        compressor = cls(budget=4)
        compressor.push(Fix(0.0, 0.0, 0.0))
        assert compressor.finish() == []
        assert compressor.finish() == []

    @pytest.mark.parametrize("cls", BUDGET_CLASSES)
    def test_state_size_tracks_the_buffer(self, cls):
        compressor = cls(budget=6)
        for i in range(10):
            compressor.push(Fix(float(i), float(i), 0.0))
        assert compressor.state_size == 3 * compressor.buffer_len
        assert compressor.sync_error_bound() is None

    @pytest.mark.parametrize(
        "spec,cls",
        [
            ("squish:budget=5", StreamingSQUISH),
            ("sttrace:budget=5", StreamingSTTrace),
            ("dead-reckoning:epsilon=30", StreamingDeadReckoning),
        ],
    )
    def test_spec_strings_resolve(self, spec, cls):
        assert isinstance(make_online_compressor(spec), cls)


class TestDeadReckoning:
    @pytest.mark.parametrize("epsilon", [5.0, 15.0, 40.0])
    @settings(max_examples=30, deadline=None)
    @given(traj=trajectories(min_points=2, max_points=40))
    def test_batch_identical(self, epsilon, traj):
        batch = make_compressor("dead-reckoning", epsilon=epsilon)
        batch_times = traj.t[batch.compress(traj).indices]
        fixes = [
            Fix(float(traj.t[i]), float(traj.xy[i, 0]), float(traj.xy[i, 1]))
            for i in range(len(traj))
        ]
        compressor = StreamingDeadReckoning(epsilon=epsilon)
        emitted: list[Fix] = []
        for fix in fixes:
            emitted.extend(compressor.push(fix))
        emitted.extend(compressor.finish())
        assert [f.t for f in emitted] == list(batch_times)

    def test_no_evictions_ever(self):
        compressor = StreamingDeadReckoning(epsilon=10.0)
        for i in range(50):
            events = compressor.push(Fix(float(i), float(i * i % 37), 0.0))
            assert not any(isinstance(e, Eviction) for e in events)
