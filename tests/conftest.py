"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import signal

import numpy as np
import pytest
from hypothesis import strategies as st

import repro.storage.store as store_module
from repro.datagen import TrajectoryGenerator, URBAN
from repro.streaming.budget import _BudgetBuffer
from repro.trajectory import Trajectory
from repro.types import Fix

#: Hard wall-clock ceiling for each ``serve``-marked test. The serving
#: tests drive real sockets and an event loop; a protocol bug tends to
#: show up as a hang (reader waiting on a response that never comes),
#: so a deadline beats a green-but-stuck suite.
SERVE_TEST_TIMEOUT_S = 30.0


@pytest.fixture(autouse=True)
def _serve_deadline(request: pytest.FixtureRequest):
    """SIGALRM watchdog for ``serve``-marked tests (no pytest-timeout here)."""
    if request.node.get_closest_marker("serve") is None:
        yield
        return
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - POSIX-only guard
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"serve test exceeded {SERVE_TEST_TIMEOUT_S:g}s wall-clock deadline"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, SERVE_TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden regression expectations in tests/data/golden/ "
             "instead of asserting against them",
    )


@pytest.fixture
def regen_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run should regenerate golden files, not check them."""
    return bool(request.config.getoption("--regen-golden"))


@pytest.fixture
def summarized(monkeypatch: pytest.MonkeyPatch) -> list[bytes]:
    """The blobs a :class:`~repro.storage.store.TrajectoryStore`
    summarizes from here on, in call order.

    Wraps the store's ``summarize_blob``: a summary a footer or a merge
    supplied is served from the partition columns and adds nothing; one
    built at insert, or on demand for a record that arrived without one,
    adds its blob. Tests clear the list after building their reference
    stores.
    """
    blobs: list[bytes] = []
    summarize_blob = store_module.summarize_blob

    def counting(blob, *args):
        blobs.append(blob)
        return summarize_blob(blob, *args)

    monkeypatch.setattr(store_module, "summarize_blob", counting)
    return blobs


class EvictionRecorder:
    """Per-compressor eviction logs, recorded from the budget buffer."""

    def __init__(self) -> None:
        #: Buffer instance -> ``(fix, priority at eviction)`` per eviction.
        self.by_buffer: dict[object, list[tuple[Fix, float]]] = {}

    def log(self, compressor) -> list[tuple[Fix, float]]:
        """``compressor``'s evictions in order, one per ``n_evicted``."""
        log = list(self.by_buffer.get(compressor._buffer, []))
        assert len(log) == compressor.n_evicted
        return log


@pytest.fixture
def eviction_logs(monkeypatch: pytest.MonkeyPatch):
    """Record every budget-compressor eviction as ``(fix, priority)``.

    Wraps ``_BudgetBuffer.pop_min``, the eviction step's pop, so tests
    can read an eviction log the compressors themselves do not keep.
    Logs are per buffer instance, so one recorder serves every
    compressor a test (or a Hypothesis run) creates; the test fails if
    nothing was evicted at all, since empty logs would check nothing.
    """
    recorder = EvictionRecorder()
    pop_min = _BudgetBuffer.pop_min

    def recording_pop_min(buffer: _BudgetBuffer):
        node = pop_min(buffer)
        recorder.by_buffer.setdefault(buffer, []).append(
            (node.fix, float(node.priority or 0.0))
        )
        return node

    monkeypatch.setattr(_BudgetBuffer, "pop_min", recording_pop_min)
    yield recorder
    assert any(recorder.by_buffer.values()), "no eviction was recorded"


@pytest.fixture
def zigzag() -> Trajectory:
    """A small deterministic trajectory with turns, stops and speed-ups.

    Nineteen points (like the paper's Fig. 1 series): a fast eastward
    run, a sharp northward turn, a stop, and a diagonal sprint.
    """
    points = [
        (0.0, 0.0, 0.0),
        (10.0, 120.0, 5.0),
        (20.0, 240.0, -4.0),
        (30.0, 355.0, 3.0),
        (40.0, 470.0, 0.0),
        (50.0, 480.0, 90.0),  # sharp left turn, slowing
        (60.0, 485.0, 180.0),
        (70.0, 488.0, 260.0),
        (80.0, 489.0, 262.0),  # stopping
        (90.0, 489.5, 262.5),  # stopped
        (100.0, 489.8, 262.8),
        (110.0, 495.0, 270.0),  # moving off
        (120.0, 540.0, 330.0),
        (130.0, 610.0, 400.0),
        (140.0, 690.0, 470.0),
        (150.0, 780.0, 545.0),
        (160.0, 870.0, 620.0),
        (170.0, 965.0, 700.0),
        (180.0, 1060.0, 775.0),
    ]
    return Trajectory.from_points(points, object_id="zigzag")


@pytest.fixture
def straight_line() -> Trajectory:
    """Points exactly on a constant-velocity line: fully compressible."""
    t = np.arange(0.0, 110.0, 10.0)
    xy = np.column_stack([t * 12.0, t * 5.0])
    return Trajectory(t, xy, object_id="straight")


@pytest.fixture(scope="session")
def urban_trajectory() -> Trajectory:
    """One realistic synthetic urban trip (deterministic)."""
    return TrajectoryGenerator(seed=11).generate(URBAN, object_id="urban-11")


@pytest.fixture(scope="session")
def small_dataset() -> list[Trajectory]:
    """Three small realistic trips for integration tests (fast)."""
    generator = TrajectoryGenerator(seed=5)
    short_urban = URBAN.with_length(4_000.0)
    return [
        generator.generate(short_urban, object_id=f"mini-{i}") for i in range(3)
    ]


# --------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------- #


@st.composite
def trajectories(
    draw: st.DrawFn,
    min_points: int = 2,
    max_points: int = 40,
    coord_range: float = 2_000.0,
) -> Trajectory:
    """Random valid trajectories: increasing times, bounded coordinates."""
    n = draw(st.integers(min_points, max_points))
    gaps = draw(
        st.lists(
            st.floats(0.5, 60.0, allow_nan=False, allow_infinity=False),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    start = draw(st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False))
    t = np.concatenate([[start], start + np.cumsum(gaps)]) if n > 1 else np.array([start])
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(-coord_range, coord_range, allow_nan=False),
                st.floats(-coord_range, coord_range, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return Trajectory(t, np.asarray(coords, dtype=float))


@st.composite
def vectors2(draw: st.DrawFn, magnitude: float = 1_000.0) -> np.ndarray:
    """Random finite 2-vectors."""
    x = draw(st.floats(-magnitude, magnitude, allow_nan=False))
    y = draw(st.floats(-magnitude, magnitude, allow_nan=False))
    return np.array([x, y])
