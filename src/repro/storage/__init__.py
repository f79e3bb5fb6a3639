"""Compressed moving-object storage: codec, streaming ingest, store.

The applied payoff of the paper's algorithms: a
:class:`TrajectoryStore` that point-compresses trajectories at ingest,
keeps them as delta/varint blobs, and serves reconstruction,
position-at-time, time-window and rectangle queries with storage
accounting. One catalog of each record's decoded time span and bbox
prunes every query; :mod:`repro.query` answers the rest.
"""

from repro.storage.codec import (
    decode_trajectory,
    decode_varint,
    encode_trajectory,
    encode_varint,
    raw_size_bytes,
    unzigzag,
    zigzag,
)
from repro.storage.ingest import StreamIngestor
from repro.storage.store import StoreStats, StoredRecord, TrajectoryStore

__all__ = [
    "StoreStats",
    "StreamIngestor",
    "StoredRecord",
    "TrajectoryStore",
    "decode_trajectory",
    "decode_varint",
    "encode_trajectory",
    "encode_varint",
    "raw_size_bytes",
    "unzigzag",
    "zigzag",
]
