"""Compressed moving-object storage: codec, streaming ingest, store.

The applied payoff of the paper's algorithms: a
:class:`TrajectoryStore` that point-compresses trajectories at ingest,
keeps them as delta/varint blobs, and serves reconstruction,
position-at-time, time-window and rectangle queries with storage
accounting. One catalog of each record's decoded time span and bbox
prunes every query; :mod:`repro.query` answers the rest.

Exports resolve on first use, so a server, which imports the store,
does not also import :class:`StreamIngestor` and, through it, the
batch pipeline and the error metrics.
"""

from __future__ import annotations

from typing import Any

_HOMES = {
    "StoreStats": "repro.storage.store",
    "StreamIngestor": "repro.storage.ingest",
    "StoredRecord": "repro.storage.store",
    "TrajectoryStore": "repro.storage.store",
    "decode_trajectory": "repro.storage.codec",
    "decode_varint": "repro.storage.codec",
    "encode_trajectory": "repro.storage.codec",
    "encode_varint": "repro.storage.codec",
    "raw_size_bytes": "repro.storage.codec",
    "unzigzag": "repro.storage.codec",
    "zigzag": "repro.storage.codec",
}

__all__ = [*_HOMES]


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)
