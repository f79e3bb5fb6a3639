"""Batch compression pipeline: parallel execution, fault isolation, metrics.

The fleet-scale layer over :mod:`repro.core`: a
:class:`~repro.pipeline.engine.BatchEngine` compresses an iterable /
directory / store of trajectories through any registered compressor on
a process pool (or inline), isolates per-item failures under a
``raise``/``skip``/``retry(n)`` policy, and aggregates per-item samples
into a JSON-exportable :class:`~repro.obs.Registry`. The experiment
harness (:func:`repro.experiments.run_sweep`), the storage ingestor and
the ``repro pipeline`` / ``flow`` / ``table2`` CLI commands all run on
this one code path.
"""

from repro.pipeline.checkpoint import RunCheckpoint, read_manifest
from repro.pipeline.engine import (
    BatchEngine,
    BatchRunResult,
    ItemResult,
    iter_fleet,
    load_fleet,
)
from repro.pipeline.executor import (
    FailurePolicy,
    ItemFailure,
    ItemSuccess,
    MalformedItemError,
    execute,
    summarize_traceback,
)

__all__ = [
    "BatchEngine",
    "BatchRunResult",
    "FailurePolicy",
    "ItemFailure",
    "ItemResult",
    "ItemSuccess",
    "MalformedItemError",
    "RunCheckpoint",
    "execute",
    "iter_fleet",
    "load_fleet",
    "read_manifest",
    "summarize_traceback",
]
