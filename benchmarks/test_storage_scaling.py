"""Storage scaling: query cost stays flat as the fleet grows.

The paper's motivation is fleets of hundreds of objects; a store whose
every query scans the whole catalog would erase the wins compression
buys. This bench ingests fleets of increasing size (synthetic commutes,
compressed with TD-TR) and measures per-query latency of the three query
kinds, asserting that a 8x fleet costs far less than 8x per query for the
catalog-served lookups (one numpy mask over every record's decoded time
span and bbox picks the candidates of time windows and rectangles).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import publish
from repro.core import TDTR
from repro.datagen import TrajectoryGenerator, URBAN
from repro.experiments.reporting import render_table
from repro.geometry import BBox
from repro.storage import TrajectoryStore

FLEET_SIZES = (25, 100, 200)
N_QUERIES = 120


def _build_store(fleet_size: int) -> tuple[TrajectoryStore, list]:
    generator = TrajectoryGenerator(seed=88)
    rng = np.random.default_rng(88)
    store = TrajectoryStore(compressor=TDTR(epsilon=40.0), cell_size_m=400.0)
    trips = []
    for i in range(fleet_size):
        trip = generator.generate(
            URBAN.with_length(5_000.0),
            f"car-{i:03d}",
            start_time_s=float(rng.uniform(0.0, 7_200.0)),
        )
        store.insert(trip)
        trips.append(trip)
    return store, trips


def _measure(store: TrajectoryStore, trips: list, rng: np.random.Generator) -> dict:
    timings = {}
    # Time-window queries.
    started = time.perf_counter()
    for _ in range(N_QUERIES):
        t0 = float(rng.uniform(0.0, 8_000.0))
        store.query_time_window(t0, t0 + 300.0)
    timings["time_window_us"] = (time.perf_counter() - started) / N_QUERIES * 1e6
    # Rectangle queries around known positions (non-empty answers).
    started = time.perf_counter()
    for _ in range(N_QUERIES):
        trip = trips[int(rng.integers(0, len(trips)))]
        mid = trip.xy[len(trip) // 2]
        box = BBox(mid[0] - 150, mid[1] - 150, mid[0] + 150, mid[1] + 150)
        store.query_bbox(box)
    timings["bbox_us"] = (time.perf_counter() - started) / N_QUERIES * 1e6
    # Position-at-time on random alive objects.
    started = time.perf_counter()
    for _ in range(N_QUERIES):
        trip = trips[int(rng.integers(0, len(trips)))]
        when = float(rng.uniform(trip.start_time, trip.end_time))
        store.position_at(trip.object_id or "?", when)
    timings["position_us"] = (time.perf_counter() - started) / N_QUERIES * 1e6
    return timings


def test_storage_query_scaling(benchmark, results_dir):
    def run():
        rows = []
        for fleet_size in FLEET_SIZES:
            store, trips = _build_store(fleet_size)
            timings = _measure(store, trips, np.random.default_rng(5))
            rows.append(
                (
                    fleet_size,
                    timings["time_window_us"],
                    timings["bbox_us"],
                    timings["position_us"],
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        ["fleet size", "time_window (us)", "bbox (us)", "position_at (us)"],
        rows,
        title="Storage: per-query latency vs fleet size",
    )
    publish(results_dir, "storage_scaling", table)

    growth = FLEET_SIZES[-1] / FLEET_SIZES[0]  # 8x fleet
    for column in (1, 2):
        ratio = rows[-1][column] / max(rows[0][column], 1e-9)
        assert ratio < growth, (
            f"column {column} grew {ratio:.1f}x for a {growth:.0f}x fleet"
        )
    # Absolute sanity: everything stays well under a millisecond.
    for row in rows:
        assert max(row[1:]) < 5_000.0
