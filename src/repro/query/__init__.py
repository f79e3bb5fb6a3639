"""Queries over compressed trajectory records.

The store compresses trajectories so that position queries stay
answerable within a known synchronized error; this package makes that
promise operational *without decompressing everything*:

* :mod:`repro.query.summaries` — per-object, time-partitioned bounding
  summaries (bbox + time span per partition, quantized outward to a
  configurable grid), built in one pass over an encoded blob and
  persisted in the store's version-4 footer;
* :mod:`repro.query.engine` — a :class:`QueryEngine` answering
  ``position_at`` / ``window`` / ``nearest`` by pruning on summaries and
  decoding only the partitions that survive;
* :mod:`repro.query.baseline` — the brute-force decode-everything
  reference the differential tests and benchmarks compare against.

Exports resolve lazily: the storage layer imports
:mod:`repro.query.summaries` while the engine imports the storage layer,
so an eager ``__init__`` would close an import cycle.
"""

from __future__ import annotations

from typing import Any

_HOMES = {
    "SummaryConfig": "repro.query.summaries",
    "PartitionSummary": "repro.query.summaries",
    "ObjectSummary": "repro.query.summaries",
    "build_summary": "repro.query.summaries",
    "QueryEngine": "repro.query.engine",
    "PositionAnswer": "repro.query.engine",
    "NearestAnswer": "repro.query.engine",
}

__all__ = [*_HOMES]


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)
