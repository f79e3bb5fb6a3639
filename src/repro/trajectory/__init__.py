"""Trajectory data model: the positional time series of a moving object.

The :class:`Trajectory` class is the library's core data structure — an
immutable, numpy-backed, strictly time-ordered point series interpreted as
a piecewise-linear path. The submodules provide statistics (Table 2
quantities), structural operations, incremental building, and file I/O
(CSV/JSON/GPX).

Exports resolve on first use, so a process that reads no files
imports neither the file formats nor the statistics.
"""

from __future__ import annotations

from typing import Any

_HOMES = {
    "CubicHermitePath": "repro.trajectory.spline",
    "DatasetStats": "repro.trajectory.stats",
    "QualityIssue": "repro.trajectory.quality",
    "Trajectory": "repro.trajectory.trajectory",
    "TrajectoryBuilder": "repro.trajectory.builder",
    "TrajectoryStats": "repro.trajectory.stats",
    "clean": "repro.trajectory.quality",
    "concat": "repro.trajectory.ops",
    "dataset_stats": "repro.trajectory.stats",
    "drop_speed_outliers": "repro.trajectory.quality",
    "drop_duplicate_times": "repro.trajectory.ops",
    "every_ith_indices": "repro.trajectory.ops",
    "headings": "repro.trajectory.stats",
    "merge_grids": "repro.trajectory.ops",
    "quality_issues": "repro.trajectory.quality",
    "read_csv": "repro.trajectory.io",
    "read_dataset_json": "repro.trajectory.io",
    "read_gpx": "repro.trajectory.gpx",
    "read_json": "repro.trajectory.io",
    "speeds": "repro.trajectory.stats",
    "split_on_gaps": "repro.trajectory.ops",
    "stop_episodes": "repro.trajectory.stats",
    "trajectory_stats": "repro.trajectory.stats",
    "turning_angles": "repro.trajectory.stats",
    "write_csv": "repro.trajectory.io",
    "write_dataset_json": "repro.trajectory.io",
    "write_gpx": "repro.trajectory.gpx",
    "write_json": "repro.trajectory.io",
}

__all__ = [*_HOMES]


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)
