"""repro — spatiotemporal compression of moving point object trajectories.

A production-quality reproduction of Meratnia & de By, *Spatiotemporal
Compression Techniques for Moving Point Objects* (EDBT 2004): the TD-TR /
OPW-TR / OPW-SP / TD-SP algorithms, the spatial baselines they are
compared against, the time-synchronous error notion, a synthetic GPS
workload generator, an online streaming layer, and a compressing
trajectory store.

Quickstart::

    from repro import Trajectory, TDTR, evaluate_compression

    traj = Trajectory.from_points([(0, 0, 0), (10, 95, 8), (20, 210, 4)])
    result = TDTR(epsilon=30.0).compress(traj)
    report = evaluate_compression(traj, result.compressed)
    print(report.summary())

Exports resolve on first use, so ``import repro`` loads none of the
subpackages and each process pays only for the names it uses.
"""

from __future__ import annotations

from typing import Any

__version__ = "1.0.0"

_HOMES = {
    "AngularChange": "repro.core.angular",
    "BOPW": "repro.core.opening_window",
    "BatchEngine": "repro.pipeline.engine",
    "BatchRunResult": "repro.pipeline.engine",
    "BottomUp": "repro.core.bottom_up",
    "CISED": "repro.core.one_pass",
    "CompressionReport": "repro.error.metrics",
    "CompressionResult": "repro.core.base",
    "Compressor": "repro.core.base",
    "CompressorSpec": "repro.core.registry",
    "DistanceThreshold": "repro.core.uniform",
    "DouglasPeucker": "repro.core.douglas_peucker",
    "EveryIth": "repro.core.uniform",
    "FailurePolicy": "repro.pipeline.executor",
    "Fix": "repro.types",
    "ItemFailure": "repro.pipeline.executor",
    "ItemResult": "repro.pipeline.engine",
    "NOPW": "repro.core.opening_window",
    "OPERB": "repro.core.one_pass",
    "OPWSP": "repro.core.spt",
    "OPWTR": "repro.core.opw_tr",
    "OnlineCompressor": "repro.streaming.base",
    "PointStream": "repro.streaming.stream",
    "Registry": "repro.obs.registry",
    "SlidingWindow": "repro.core.sliding_window",
    "StreamingCISED": "repro.streaming.one_pass",
    "StreamingOPERB": "repro.streaming.one_pass",
    "StreamingOPW": "repro.streaming.online",
    "TDSP": "repro.core.spt",
    "TDTR": "repro.core.td_tr",
    "Trajectory": "repro.trajectory.trajectory",
    "TrajectoryBuilder": "repro.trajectory.builder",
    "TrajectoryStore": "repro.storage.store",
    "available_compressors": "repro.core.registry",
    "available_online_compressors": "repro.streaming.registry",
    "evaluate_compression": "repro.error.metrics",
    "make_compressor": "repro.core.registry",
    "make_online_compressor": "repro.streaming.registry",
    "max_synchronized_error": "repro.error.synchronized",
    "mean_synchronized_error": "repro.error.synchronized",
    "parse_compressor_spec": "repro.core.registry",
    "register_online": "repro.streaming.registry",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)
