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
"""

from repro.core import (
    BOPW,
    CISED,
    NOPW,
    OPERB,
    OPWSP,
    OPWTR,
    TDSP,
    TDTR,
    AngularChange,
    BottomUp,
    CompressionResult,
    Compressor,
    CompressorSpec,
    DistanceThreshold,
    DouglasPeucker,
    EveryIth,
    SlidingWindow,
    available_compressors,
    make_compressor,
    parse_compressor_spec,
)
from repro.error import (
    CompressionReport,
    evaluate_compression,
    max_synchronized_error,
    mean_synchronized_error,
)
from repro.obs import Registry
from repro.pipeline import (
    BatchEngine,
    BatchRunResult,
    FailurePolicy,
    ItemFailure,
    ItemResult,
)
from repro.storage import TrajectoryStore
from repro.streaming import (
    OnlineCompressor,
    PointStream,
    StreamingCISED,
    StreamingOPERB,
    StreamingOPW,
    available_online_compressors,
    make_online_compressor,
    register_online,
)
from repro.trajectory import Trajectory, TrajectoryBuilder
from repro.types import Fix

__version__ = "1.0.0"

__all__ = [
    "AngularChange",
    "BOPW",
    "BatchEngine",
    "BatchRunResult",
    "BottomUp",
    "CISED",
    "CompressionReport",
    "CompressionResult",
    "Compressor",
    "CompressorSpec",
    "DistanceThreshold",
    "DouglasPeucker",
    "EveryIth",
    "FailurePolicy",
    "Fix",
    "ItemFailure",
    "ItemResult",
    "NOPW",
    "OPERB",
    "OPWSP",
    "OPWTR",
    "OnlineCompressor",
    "PointStream",
    "Registry",
    "SlidingWindow",
    "StreamingCISED",
    "StreamingOPERB",
    "StreamingOPW",
    "TDSP",
    "TDTR",
    "Trajectory",
    "TrajectoryBuilder",
    "TrajectoryStore",
    "available_compressors",
    "available_online_compressors",
    "evaluate_compression",
    "make_compressor",
    "make_online_compressor",
    "max_synchronized_error",
    "mean_synchronized_error",
    "parse_compressor_spec",
    "register_online",
    "__version__",
]
