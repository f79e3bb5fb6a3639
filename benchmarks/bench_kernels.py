"""Benchmark: the shipped kernel mix vs each forced side.

:mod:`repro.core.kernels` runs every sweep over a point range as a
scalar loop when the range is shorter than a measured cutoff and as a
numpy kernel otherwise; both sides are bit-identical. This bench times
the paper's two headline algorithms (TD-TR and OPW-TR) and the one-pass
family on one long synthetic trajectory three ways — as shipped, with
every sweep forced scalar, and with every sweep forced numpy (by
patching the cutoff) — verifies that all three select identical indices,
and writes the timings to ``BENCH_kernels.json`` at the repository root.
The perf gate (``check_regression.py``) gates the shipped path, which is
what production runs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--points 100000]

or the suite-sized variant::

    PYTHONPATH=src python benchmarks/bench_kernels.py --quick

or via pytest::

    pytest benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np

from repro.core import kernels
from repro.core.registry import make_compressor
from repro.datagen import URBAN, TrajectoryGenerator
from repro.trajectory import Trajectory

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
#: The paper's two spatiotemporal headliners — top-down (batch) and
#: opening-window (online) — plus the one-pass error-bounded family
#: (OPERB's rectangle regions, CISED's polygon regions).
SPECS = (
    "td-tr:epsilon=30",
    "opw-tr:epsilon=30",
    "operb:epsilon=30",
    "cised:epsilon=30",
)
FULL_POINTS = 100_000
QUICK_POINTS = 4_000
#: Cutoff values forcing one side for every sweep; ``None`` ships as is.
SIDES = {"shipped": None, "scalar": sys.maxsize, "numpy": 0}
#: The gated shipped path and the forced numpy side get best-of-3 to
#: smooth allocator noise; the forced scalar side is the slow one on
#: long ranges and runs once.
REPEATS = {"shipped": 3, "scalar": 1, "numpy": 3}


def make_trajectory(n_points: int, seed: int = 7) -> Trajectory:
    """One deterministic urban trip resampled to ``n_points`` fixes."""
    traj = TrajectoryGenerator(seed=seed).generate(URBAN, object_id="bench")
    step = (traj.end_time - traj.start_time) / (n_points - 1)
    return traj.resample(step)


def time_side(spec: str, traj: Trajectory, side: str) -> tuple[dict, np.ndarray]:
    """Best-of-``REPEATS[side]`` wall time for one (spec, side) pair."""
    compressor = make_compressor(spec)
    cutoff = SIDES[side]
    forced = (
        nullcontext()
        if cutoff is None
        else mock.patch.object(kernels, "_NUMPY_MIN_SWEEP", cutoff)
    )
    best = float("inf")
    indices = np.empty(0, dtype=int)
    with forced:
        for _ in range(REPEATS[side]):
            started = time.perf_counter()
            indices = compressor.select_indices(traj)
            best = min(best, time.perf_counter() - started)
    return {"best_s": best, "n_kept": int(len(indices))}, indices


def bench(n_points: int, output: Path = OUTPUT) -> dict:
    """Time every side per spec, check agreement, write the JSON report."""
    traj = make_trajectory(n_points)
    algorithms = {}
    for spec in SPECS:
        entry = {}
        shipped_indices = None
        for side in SIDES:
            entry[side], indices = time_side(spec, traj, side)
            if shipped_indices is None:
                shipped_indices = indices
            assert np.array_equal(indices, shipped_indices), (
                f"{spec}: forced {side} diverged from the shipped path"
            )
        algorithms[spec] = entry
    report = {
        "benchmark": "kernels",
        "n_points": len(traj),
        "algorithms": algorithms,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_bench_kernels_quick(tmp_path):
    """Suite-sized smoke: all sides agree and the report lands on disk."""
    report = bench(800, output=tmp_path / "BENCH_kernels.json")
    assert (tmp_path / "BENCH_kernels.json").exists()
    for spec, entry in report["algorithms"].items():
        assert len({entry[side]["n_kept"] for side in SIDES}) == 1, spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--points", type=int, default=FULL_POINTS,
        help=f"trajectory length in fixes (default {FULL_POINTS})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI-sized run ({QUICK_POINTS} points instead of {FULL_POINTS})",
    )
    parser.add_argument(
        "--output", "-o", type=Path, default=OUTPUT,
        help=f"report path (default {OUTPUT.name} at the repo root)",
    )
    args = parser.parse_args()
    n_points = QUICK_POINTS if args.quick else args.points
    report = bench(n_points, output=args.output)
    for spec, entry in report["algorithms"].items():
        print(
            f"{spec}: shipped {entry['shipped']['best_s']:.3f}s, "
            f"scalar {entry['scalar']['best_s']:.3f}s, "
            f"numpy {entry['numpy']['best_s']:.3f}s, "
            f"kept {entry['shipped']['n_kept']}"
        )
    print(f"-> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
