"""A compressing trajectory store.

The database piece the paper's introduction asks for: ingest moving-object
trajectories, compress them on the way in (any
:class:`~repro.core.base.Compressor`), keep them as compact encoded blobs
(:mod:`repro.storage.codec`), and answer the queries a moving-object
application needs:

* reconstruction (:meth:`TrajectoryStore.get`) and position-at-time
  (:meth:`TrajectoryStore.position_at`) via the piecewise-linear model,
* time-window and spatial-rectangle queries
  (:meth:`TrajectoryStore.query_time_window`,
  :meth:`TrajectoryStore.query_bbox`), both pruned by one catalog of
  each record's decoded time span and bbox
  (:meth:`TrajectoryStore.candidates`); rectangle and nearest queries
  are thin delegates of :class:`~repro.query.engine.QueryEngine`,
* storage accounting (:meth:`TrajectoryStore.stats`) that quantifies the
  paper's motivating arithmetic,
* single-file persistence (:meth:`TrajectoryStore.save` /
  :meth:`TrajectoryStore.load`).

The store holds its records as columns, not as objects: one blob and
one row of :data:`RECORD_DTYPE` per record, and one row of
:data:`~repro.query.summaries.PARTITION_DTYPE` per summary partition.
:meth:`~TrajectoryStore.record` and :meth:`~TrajectoryStore.summary`
build their values on demand.

Durability: :meth:`~TrajectoryStore.save` writes atomically (tmp file +
fsync + rename), every record carries a CRC-32 over its catalog header
and blob (file version 3), and each blob additionally carries the
codec's own checksum — so a torn write or flipped bit surfaces as a
:class:`~repro.exceptions.CorruptRecordError` at load, never as silently
wrong coordinates. ``load(path, verify="skip")`` quarantines corrupt
records in :attr:`TrajectoryStore.load_failures` and keeps the healthy
ones.
"""

from __future__ import annotations

import math
import struct
import time
from collections import OrderedDict, namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.base import Compressor
from repro.exceptions import (
    CorruptRecordError,
    ObjectNotFoundError,
    ReproError,
    StorageError,
)
from repro.geometry.bbox import BBox
from repro.io_util import crc32, write_atomic
from repro.obs import Registry, get_registry, span
from repro.query.summaries import (
    PARTITION_DTYPE,
    ObjectSummary,
    PartitionRow,
    SummaryConfig,
    SummaryTable,
    footer_chunks,
    object_summary,
    parse_footer,
    partition_rows,
    partition_values,
    summarize_blob,
)
from repro.storage.codec import (
    BlobLayout,
    blob_crc_ok,
    blob_layout,
    decode_chains,
    decode_trajectory,
    encode_trajectory,
    raw_size_bytes,
)
from repro.trajectory.trajectory import Trajectory

if TYPE_CHECKING:  # the engine module imports this one
    from repro.query.engine import LiveSession, QueryEngine

__all__ = [
    "RECORD_DTYPE",
    "RecordRow",
    "StoreColumns",
    "StoredRecord",
    "StoreStats",
    "TrajectoryStore",
    "effective_query_box",
]

_FILE_MAGIC = b"RSTO"
#: Current store-file version: 4 = v3 + partition-summary footer.
_FILE_VERSION = 4
#: Oldest store-file version still loaded (2 = no record checksums,
#: 3 = per-record CRC-32 without a summary footer).
_MIN_FILE_VERSION = 2
#: Point bytes :meth:`TrajectoryStore.load` decodes per numpy pass: its
#: temporaries stay under 1 MB, and larger chunks load no faster.
_LOAD_CHUNK_BYTES = 1 << 14
#: Records :meth:`TrajectoryStore.save` frames per written chunk.
_SAVE_BATCH = 256
#: A saved record's frame header: raw point count, error margin (NaN:
#: none known) and blob length; a CRC-32 over header and blob follows.
_FRAME_DTYPE = np.dtype([("n_raw", "<u4"), ("bound", "<f8"), ("size", "<u4")])
_U32 = struct.Struct("<I")

#: One stored record per row: point counts, the decoded time span and
#: bbox, the error margin (NaN: none known), and the record's summary
#: partitions (``n_parts`` rows from ``part``; 0 until summarized).
RECORD_DTYPE = np.dtype([
    ("n_raw", np.int64), ("n_stored", np.int64),
    ("start", np.float64), ("end", np.float64),
    ("min_x", np.float64), ("min_y", np.float64),
    ("max_x", np.float64), ("max_y", np.float64),
    ("bound", np.float64),
    ("part", np.int64), ("n_parts", np.int64),
])


class RecordRow(namedtuple("RecordRow", RECORD_DTYPE.names)):
    """One :data:`RECORD_DTYPE` row as Python values, read by field name
    (:meth:`StoreColumns.record`)."""

    __slots__ = ()

    @property
    def sync_error_bound_m(self) -> float | None:
        """The error margin (``None``: not known; see :class:`StoredRecord`)."""
        return None if math.isnan(self.bound) else self.bound

    @property
    def bbox(self) -> BBox:
        """The bbox of the decoded points."""
        return BBox(self.min_x, self.min_y, self.max_x, self.max_y)


@dataclass(frozen=True, slots=True)
class StoredRecord:
    """Catalog entry for one stored trajectory.

    ``sync_error_bound_m`` is the known margin of error of the stored
    geometry against the raw movement (the paper's third objective:
    "known, small margins of error"): the ingest compressor's guaranteed
    synchronized bound plus the codec's quantization slack, or ``None``
    when the compressor gave no guarantee.
    """

    object_id: str
    blob: bytes
    n_raw_points: int
    n_stored_points: int
    start_time: float
    end_time: float
    bbox: BBox
    sync_error_bound_m: float | None = None

    @property
    def stored_bytes(self) -> int:
        return len(self.blob)

    @property
    def raw_bytes(self) -> int:
        """Bytes the *uncompressed* trajectory would need naively."""
        return raw_size_bytes(self.n_raw_points)


#: A blob on its way into the catalog: ``(key, blob, layout, n_raw,
#: bound)``; a ``None`` key takes the blob's own object id.
_Encoded = tuple[str | None, bytes, BlobLayout, int, float | None]


class StoreColumns(NamedTuple):
    """A read of a store's columns, valid until its next mutation.

    Row ``r`` is record ``ids[r]``, encoded as ``blobs[r]``; its
    ``records[r]`` row (:data:`RECORD_DTYPE`) selects its summary rows
    of ``partitions`` (:data:`~repro.query.summaries.PARTITION_DTYPE`).
    """

    ids: list[str]
    blobs: list[bytes]
    records: np.ndarray
    partitions: np.ndarray

    def record(self, row: int) -> RecordRow:
        """Record row ``row``."""
        return RecordRow._make(self.records[row].item())

    def partitions_of(self, record: RecordRow) -> list[PartitionRow]:
        """A record's partition rows, in order."""
        return partition_values(self.partitions[record.part : record.part + record.n_parts])


def _reserve(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` with room for ``size`` rows, grown by an eighth at a time."""
    if size <= len(array):
        return array
    grown = np.zeros(size + size // 8 + 16, array.dtype)
    grown[: len(array)] = array
    return grown


@dataclass(frozen=True, slots=True)
class StoreStats:
    """Aggregate storage accounting over the whole store."""

    n_objects: int
    n_raw_points: int
    n_stored_points: int
    raw_bytes: int
    stored_bytes: int

    @property
    def point_compression_percent(self) -> float:
        """Percent of points removed by the compressors at ingest."""
        if self.n_raw_points == 0:
            return 0.0
        return 100.0 * (1.0 - self.n_stored_points / self.n_raw_points)

    @property
    def byte_compression_ratio(self) -> float:
        """Raw bytes over stored bytes (points + codec combined)."""
        if self.stored_bytes == 0:
            return float("inf") if self.raw_bytes else 1.0
        return self.raw_bytes / self.stored_bytes


class TrajectoryStore:
    """In-memory (optionally file-persisted) compressed trajectory store.

    Args:
        compressor: applied to every ingested trajectory unless an
            ``insert`` call overrides it; ``None`` stores raw points.
        cell_size_m: accepted for compatibility and has no effect (the
            store no longer keeps a grid index).
        time_resolution_s / coord_resolution_m: codec quanta.
        cache_size: number of decoded trajectories kept in the LRU cache.
        summary_partition_points / summary_grid_m / summary_time_grid_s:
            partitioning and outward-quantization parameters of the
            per-object query summaries (see
            :mod:`repro.query.summaries`); loading a version-4 file
            adopts the file's parameters.
        metrics: registry for save/load instrumentation (bytes, CRC
            failures, durations); falls back to the ambient
            :func:`repro.obs.get_registry` when omitted.
    """

    def __init__(
        self,
        compressor: Compressor | None = None,
        cell_size_m: float = 500.0,
        time_resolution_s: float = 1e-3,
        coord_resolution_m: float = 0.01,
        cache_size: int = 32,
        summary_partition_points: int = 64,
        summary_grid_m: float = 25.0,
        summary_time_grid_s: float = 1.0,
        metrics: Registry | None = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be non-negative, got {cache_size}")
        self.compressor = compressor
        self.metrics = metrics
        self.time_resolution_s = float(time_resolution_s)
        self.coord_resolution_m = float(coord_resolution_m)
        self.summary_config = SummaryConfig(
            int(summary_partition_points),
            float(summary_grid_m),
            float(summary_time_grid_s),
        )
        # Row r of every column is the record self._ids[r]; a removal
        # moves the last row into the gap.
        self._row: dict[str, int] = {}
        self._ids: list[str] = []
        self._blobs: list[bytes] = []
        self._records = np.zeros(0, RECORD_DTYPE)
        # Partition rows in use (the first self._n_parts), of which
        # self._dead_parts belong to no record any more.
        self._parts = np.zeros(0, PARTITION_DTYPE)
        self._n_parts = 0
        self._dead_parts = 0
        self._cache: OrderedDict[str, Trajectory] = OrderedDict()
        self._cache_size = cache_size
        #: Human-readable reasons for records dropped by
        #: ``load(..., verify="skip")``; empty for clean loads.
        self.load_failures: list[str] = []

    def _registry(self) -> Registry:
        """The registry save/load sample into: explicit, else ambient."""
        return self.metrics if self.metrics is not None else get_registry()

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def insert(
        self,
        traj: Trajectory,
        object_id: str | None = None,
        compressor: Compressor | None = None,
        replace: bool = False,
        raw_point_count: int | None = None,
        sync_error_bound_m: float | None | str = "auto",
    ) -> StoredRecord:
        """Compress, encode and index one trajectory.

        Args:
            traj: the raw trajectory.
            object_id: storage key; defaults to ``traj.object_id``.
            compressor: overrides the store default for this insert.
            replace: allow overwriting an existing id.
            raw_point_count: how many raw fixes this trajectory stands
                for, when the caller compressed upstream (the streaming
                ingestor does); defaults to ``len(traj)``.
            sync_error_bound_m: the upstream compression's guaranteed
                synchronized bound, when the caller compressed before
                inserting. ``"auto"`` (default) derives it from the
                applied compressor (0 when storing raw); ``None`` records
                "no known margin". Codec quantization slack is added to
                any numeric value.

        Raises:
            StorageError: missing id, duplicate id without ``replace``,
                or a margin that is negative, NaN or infinite.
        """
        key = object_id or traj.object_id
        if not key:
            raise StorageError("trajectory has no object id and none was given")
        if key in self._row and not replace:
            raise StorageError(f"object id {key!r} already stored (use replace=True)")
        chosen = compressor if compressor is not None else self.compressor
        stored = chosen.compress(traj).compressed if chosen is not None else traj
        stored = stored.with_object_id(key)
        if sync_error_bound_m == "auto":
            upstream_bound = chosen.sync_error_bound() if chosen is not None else 0.0
        else:
            upstream_bound = _checked_margin(sync_error_bound_m, key)  # type: ignore[arg-type]
        bound = self._total_error_bound(upstream_bound)
        blob = encode_trajectory(
            stored, self.time_resolution_s, self.coord_resolution_m
        )
        if raw_point_count is not None and raw_point_count < len(stored):
            raise StorageError(
                f"raw_point_count {raw_point_count} below stored size {len(stored)}"
            )
        n_raw = raw_point_count if raw_point_count is not None else len(traj)
        return self._register_one(key, blob, n_raw, bound)

    def _total_error_bound(self, compressor_bound: float | None) -> float | None:
        """Compression guarantee plus codec quantization slack."""
        if compressor_bound is None:
            return None
        codec_slack = 0.5 * self.coord_resolution_m * float(np.sqrt(2.0))
        return compressor_bound + codec_slack

    def append(
        self,
        object_id: str,
        continuation: Trajectory,
        compressor: Compressor | None = None,
    ) -> StoredRecord:
        """Extend a stored trajectory with a later continuation.

        Real objects report across sessions (a vehicle's morning and
        evening trips, a tag's daily uplinks); ``append`` decodes the
        stored prefix, compresses only the *new* points, concatenates and
        re-encodes. The stored prefix's already-selected points are left
        untouched.

        The recorded raw count grows by ``len(continuation)``; the error
        margin is widened to the larger of the old margin and the new
        compressor's (an unknown margin on either side stays unknown).

        Raises:
            ObjectNotFoundError: unknown id.
            StorageError: continuation overlaps the stored interval.
        """
        record = self.record(object_id)
        if continuation.start_time <= record.end_time:
            raise StorageError(
                f"continuation starts at {continuation.start_time} but "
                f"{object_id!r} is stored through {record.end_time}"
            )
        chosen = compressor if compressor is not None else self.compressor
        new_part = (
            chosen.compress(continuation).compressed
            if chosen is not None
            else continuation
        )
        prefix = self.get(object_id)
        combined = Trajectory(
            np.concatenate([prefix.t, new_part.t]),
            np.concatenate([prefix.xy, new_part.xy]),
            object_id,
            _validated=True,
        )
        old_bound = record.sync_error_bound_m
        new_bound = self._total_error_bound(
            chosen.sync_error_bound() if chosen is not None else 0.0
        )
        if old_bound is None or new_bound is None:
            merged_bound: float | None = None
        else:
            merged_bound = max(old_bound, new_bound)
        blob = encode_trajectory(
            combined, self.time_resolution_s, self.coord_resolution_m
        )
        return self._register_one(
            object_id, blob, record.n_raw_points + len(continuation), merged_bound
        )

    def adopt_record(self, record: StoredRecord, *, replace: bool = False) -> None:
        """Take over an already-encoded record from another store.

        The record's blob was produced by a compatible codec, so
        re-encoding would be pure waste — the blob is adopted verbatim,
        after the decode and checksum checks of any foreign blob, and the
        catalog extents and summary are rebuilt from its decoded points.
        (:meth:`merge_from` moves a whole store's columns instead.)

        Raises:
            StorageError: duplicate id without ``replace``, or a margin
                that is negative, NaN or infinite.
            CorruptRecordError: the blob fails its codec checksum.
        """
        key = record.object_id
        if key in self._row and not replace:
            raise StorageError(f"object id {key!r} already stored (use replace=True)")
        bound = _checked_margin(record.sync_error_bound_m, key)
        self._register_one(key, record.blob, record.n_raw_points, bound)

    def _register_one(
        self, key: str, blob: bytes, n_raw: int, bound: float | None
    ) -> StoredRecord:
        """Catalog and summarize one encoded blob under ``key``."""
        (error,) = self._register_blobs(
            [(key, blob, blob_layout(blob), n_raw, bound)], str(key), summarize=True
        )
        if error is not None:
            raise error
        return self.record(key)

    def _register_blobs(
        self, batch: list[_Encoded], source: str, *, summarize: bool = False
    ) -> list[ReproError | None]:
        """Decode a batch of blobs in one numpy pass; register the healthy ones.

        Every mutation path but :meth:`merge_from` ends here, so catalog
        extents always come from decoded points (the floats
        :func:`decode_trajectory` returns) and survive save and load
        unchanged. The batch pass makes :func:`decode_trajectory`'s
        checks; a blob failing them is decoded alone for its error.
        ``summarize`` builds each record's summary from the same decoded
        points; otherwise the record has none until a load's footer
        supplies it or a reader asks (:meth:`summary`).

        Returns:
            Per blob, ``None`` once registered, or the error refusing it.
        """
        layouts = [layout for _, _, layout, _, _ in batch]
        counts = np.array([layout.n_points for layout in layouts])
        rows, errors = decode_chains(
            b"".join(memoryview(blob)[lay.points_offset : lay.payload_end]
                     for _, blob, lay, _, _ in batch),
            np.cumsum([0] + [lay.payload_end - lay.points_offset for lay in layouts]),
            counts,
        )
        scale = [(lay.time_resolution_s, *[lay.coord_resolution_m] * 2) for lay in layouts]
        decoded = rows * np.repeat(scale, counts, axis=0)
        t, xy = decoded[:, 0], decoded[:, 1:]
        firsts = counts.cumsum() - counts
        # Trajectory's own checks: finite, strictly increasing in time.
        rising = np.append(True, t[1:] > t[:-1])
        rising[firsts] = True
        healthy = np.logical_and.reduceat(np.isfinite(decoded).all(axis=1) & rising, firsts)
        results: list[ReproError | None] = []
        # Registered row -> its blob's index in the batch (a later blob
        # of the same id replaces an earlier one).
        taken: dict[int, int] = {}
        for j, (key, blob, layout, n_raw, bound) in enumerate(batch):
            key = key or layout.object_id
            if not (key and errors[j] is None and healthy[j] and blob_crc_ok(blob, layout)):
                # Decoded alone, the blob raises the error that refuses it;
                # if it decodes, the batch refused it for its missing id.
                try:
                    decode_trajectory(blob)
                except ReproError as exc:
                    results.append(exc)
                else:
                    results.append(StorageError(f"{source}: stored blob lacks an object id"))
                continue
            taken[self._claim_row(key, blob)] = j
            results.append(None)
        if not taken:
            return results
        at, src = np.fromiter(taken, np.int64), np.fromiter(taken.values(), np.int64)
        rec = self._records
        rec["n_raw"][at] = [batch[j][3] for j in src.tolist()]
        rec["n_stored"][at] = counts[src]
        rec["start"][at] = t[firsts[src]]
        rec["end"][at] = t[(firsts + counts - 1)[src]]
        rec["min_x"][at], rec["min_y"][at] = np.minimum.reduceat(xy, firsts)[src].T
        rec["max_x"][at], rec["max_y"][at] = np.maximum.reduceat(xy, firsts)[src].T
        rec["bound"][at] = [np.nan if batch[j][4] is None else batch[j][4]
                            for j in src.tolist()]
        if summarize:
            for row, j in taken.items():
                self._summarize(row, rows[firsts[j] : firsts[j] + counts[j]])
        return results

    def _claim_row(self, key: str, blob: bytes) -> int:
        """The row of ``key``, appended when new, now holding ``blob`` and
        no summary; the caller fills its record columns."""
        row = self._row.get(key)
        if row is None:
            row = self._row[key] = len(self._ids)
            self._ids.append(key)
            self._blobs.append(blob)
            self._records = _reserve(self._records, row + 1)
            self._records["n_parts"][row] = 0
        else:
            self._drop_summary(row)
            self._blobs[row] = blob
            self._cache.pop(key, None)
        return row

    def _summarize(self, row: int, points: np.ndarray | None = None) -> None:
        """Build and keep the summary of the record in ``row``; ``points``
        are its blob's decoded quantized rows, when at hand."""
        parts = summarize_blob(self._blobs[row], self.summary_config, points)
        self._records["part"][row] = self._append_parts(parts)
        self._records["n_parts"][row] = len(parts)

    def _append_parts(self, parts: np.ndarray) -> int:
        """Append partition rows; returns the first one's index."""
        first = self._n_parts
        self._parts = _reserve(self._parts, first + len(parts))
        self._parts[first : first + len(parts)] = parts
        self._n_parts += len(parts)
        return first

    def _drop_summary(self, row: int) -> None:
        """Forget the summary of the record in ``row``."""
        count = int(self._records["n_parts"][row])
        self._records["n_parts"][row] = 0
        self._retire_parts(count)

    def _retire_parts(self, count: int) -> None:
        """Count ``count`` partition rows as garbage; compact the partition
        columns once garbage is the larger half."""
        self._dead_parts += count
        if self._dead_parts <= max(self._n_parts // 2, 1024):
            return
        n = len(self._ids)
        first, live = self._records["part"][:n], self._records["n_parts"][:n]
        self._parts = self._parts[partition_rows(first, live)]
        first[:] = np.cumsum(live) - live
        self._n_parts = len(self._parts)
        self._dead_parts = 0

    def merge_from(self, other: "TrajectoryStore", *, replace: bool = False) -> int:
        """Adopt every record of ``other`` into this store.

        Used when a drained shard fleet folds its per-worker partition
        files into one store file. ``other``'s columns are appended as
        they are — blobs, catalog extents and summary rows, without a
        decode (its load or inserts checked them). Summaries made under
        another summary configuration are rebuilt on demand instead.

        Returns:
            How many records were adopted.

        Raises:
            StorageError: an id exists in both stores and ``replace`` is
                false; nothing is adopted then.
        """
        if not replace:
            clash = next((key for key in other._ids if key in self._row), None)
            if clash is not None:
                raise StorageError(f"object id {clash!r} already stored (use replace=True)")
        n = len(other)
        incoming = other._records[:n].copy()
        live = incoming["n_parts"]
        parts = other._parts[partition_rows(incoming["part"], live)]
        rows = [self._claim_row(key, blob) for key, blob in zip(other._ids, other._blobs)]
        if other.summary_config == self.summary_config:
            incoming["part"] = self._append_parts(parts) + np.cumsum(live) - live
        else:
            live[:] = 0
        self._records[rows] = incoming
        return n

    def remove(self, object_id: str) -> None:
        """Delete a stored trajectory.

        Raises:
            ObjectNotFoundError: for unknown ids.
        """
        row = self.row_of(object_id)
        del self._row[object_id]
        self._cache.pop(object_id, None)
        self._drop_summary(row)
        last = len(self._ids) - 1
        if row != last:
            moved = self._ids[row] = self._ids[last]
            self._blobs[row] = self._blobs[last]
            self._records[row] = self._records[last]
            self._row[moved] = row
        self._ids.pop()
        self._blobs.pop()

    # ------------------------------------------------------------------ #
    # Retrieval
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._row

    def object_ids(self) -> list[str]:
        """All stored ids, sorted."""
        return sorted(self._ids)

    def row_of(self, object_id: str) -> int:
        """The column row of a stored id (see :meth:`columns`).

        Raises:
            ObjectNotFoundError: for unknown ids.
        """
        try:
            return self._row[object_id]
        except KeyError:
            raise ObjectNotFoundError(object_id) from None

    def record(self, object_id: str) -> StoredRecord:
        """Catalog entry (no decoding), built from the record's columns.

        Raises:
            ObjectNotFoundError: for unknown ids.
        """
        row = self.row_of(object_id)
        rec = RecordRow._make(self._records[row].item())
        return StoredRecord(object_id, self._blobs[row], rec.n_raw, rec.n_stored,
                            rec.start, rec.end, rec.bbox, rec.sync_error_bound_m)

    def get(self, object_id: str) -> Trajectory:
        """Decode the stored (compressed) trajectory."""
        cached = self._cache.get(object_id)
        if cached is not None:
            self._cache.move_to_end(object_id)
            return cached
        traj = decode_trajectory(self._blobs[self.row_of(object_id)])
        if self._cache_size:
            self._cache[object_id] = traj
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return traj

    def position_at(self, object_id: str, when: float) -> np.ndarray:
        """Interpolated position of an object at time ``when``.

        Raises:
            ObjectNotFoundError: unknown id.
            ValueError: time outside the stored interval.
        """
        return self.get(object_id).position_at(when)

    def summary(self, object_id: str) -> ObjectSummary:
        """Partition summary of a stored record (see :mod:`repro.query`),
        built from the record's partition rows.

        Summaries are built at insert/adopt time and persisted in the
        version-4 footer; records loaded from older files (or whose
        footer was quarantined) are summarized here on first use, one
        linear blob scan per record.

        Raises:
            ObjectNotFoundError: unknown id.
        """
        row = self.row_of(object_id)
        cols = self.columns([row])
        return object_summary(object_id, cols.partitions_of(cols.record(row)))

    def columns(self, rows: Iterable[int] | np.ndarray = ()) -> StoreColumns:
        """The store's columns, every row of ``rows`` summarized: what
        :class:`~repro.query.engine.QueryEngine` reads."""
        rows = np.asarray(rows, np.int64)
        counts = self._records["n_parts"][rows]
        if not counts.all():
            for row in rows[counts == 0].tolist():
                self._summarize(row)
        return StoreColumns(self._ids, self._blobs, self._records[: len(self._ids)],
                            self._parts)

    def max_sync_error_bound(self) -> float:
        """The largest recorded error margin (0.0 when none are known)."""
        if not self._ids:
            return 0.0
        bounds = self._records["bound"][: len(self._ids)]
        return float(np.where(np.isnan(bounds), 0.0, bounds).max())

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def candidate_rows(
        self, t0: float, t1: float, box: BBox | None = None
    ) -> np.ndarray:
        """Rows (see :meth:`columns`) whose time span meets ``[t0, t1]``
        and, given ``box``, whose bbox meets it too; in row order.

        One closed-comparison mask over the catalog of decoded extents:
        the time test is exact, and the box test admits every record one
        of whose samples or segments touches ``box`` (a segment only
        meets a box its own bbox meets; see :mod:`repro.geometry.clip`).

        Raises:
            ValueError: for a reversed window.
        """
        if t1 < t0:
            raise ValueError(f"empty time window [{t0}, {t1}]")
        rec = self._records[: len(self._ids)]
        keep = (rec["start"] <= t1) & (rec["end"] >= t0)
        if box is not None:
            keep &= (rec["min_x"] <= box.max_x) & (rec["min_y"] <= box.max_y)
            keep &= (rec["max_x"] >= box.min_x) & (rec["max_y"] >= box.min_y)
        return np.flatnonzero(keep)

    def candidates(
        self, t0: float, t1: float, box: BBox | None = None
    ) -> list[str]:
        """Ids of :meth:`candidate_rows`, sorted.

        Raises:
            ValueError: for a reversed window.
        """
        return sorted(map(self._ids.__getitem__, self.candidate_rows(t0, t1, box).tolist()))

    def query_time_window(self, t0: float, t1: float) -> list[str]:
        """Ids whose stored time interval overlaps the closed ``[t0, t1]``.

        Raises:
            ValueError: for a reversed window.
        """
        return self.candidates(t0, t1)

    def query_bbox(
        self,
        box: BBox,
        t0: float | None = None,
        t1: float | None = None,
        mode: str = "stored",
    ) -> list[str]:
        """Ids whose trajectory passes through ``box``.

        Compression makes stored geometry approximate; the recorded error
        margin (see :class:`StoredRecord`) turns that into three honest
        answer semantics:

        * ``"stored"`` — exact on the stored geometry (default);
        * ``"possibly"`` — every object whose *true* movement may have
          entered the box: the box is expanded by each object's recorded
          margin (objects without a margin fall back to the stored test,
          since their deviation is unknown rather than unbounded);
        * ``"definitely"`` — only objects whose true movement must have
          entered the box: the box is shrunk by the margin (objects
          without a margin can never be definite).

        A delegate of :meth:`QueryEngine.window
        <repro.query.engine.QueryEngine.window>`.

        Args:
            box: query rectangle.
            t0, t1: optional time window; both or neither (neither asks
                for all time).
            mode: ``"stored"``, ``"possibly"`` or ``"definitely"``.
        """
        if (t0 is None) != (t1 is None):
            raise ValueError("provide both t0 and t1, or neither")
        if t0 is None or t1 is None:
            t0, t1 = -math.inf, math.inf
        return self._engine().window(t0, t1, box, mode)

    def nearest(
        self, x: float, y: float, when: float, k: int = 1
    ) -> list[tuple[str, float]]:
        """The ``k`` objects nearest to ``(x, y)`` at time ``when``.

        Positions are interpolated on the stored (compressed)
        trajectories; objects whose stored interval does not cover
        ``when`` are not candidates. A delegate of
        :meth:`QueryEngine.nearest <repro.query.engine.QueryEngine.nearest>`.

        Returns:
            Up to ``k`` pairs ``(object_id, distance_m)``, nearest first;
            ties broken by object id.
        """
        answers = self._engine().nearest(x, y, when, k)
        return [(answer.object_id, answer.distance_m) for answer in answers]

    def _engine(self) -> QueryEngine:
        from repro.query.engine import QueryEngine

        return QueryEngine(self, metrics=self.metrics)

    # ------------------------------------------------------------------ #
    # Accounting & persistence
    # ------------------------------------------------------------------ #

    def stats(self) -> StoreStats:
        """Aggregate storage accounting."""
        rec = self._records[: len(self._ids)]
        n_raw = int(rec["n_raw"].sum())
        return StoreStats(
            n_objects=len(self._ids),
            n_raw_points=n_raw,
            n_stored_points=int(rec["n_stored"].sum()),
            raw_bytes=raw_size_bytes(n_raw),
            stored_bytes=sum(map(len, self._blobs)),
        )

    def save(self, path: str | Path, *, durable: bool = True) -> None:
        """Persist the store to one file (records only; config implied).

        The file is written atomically (temporary sibling + fsync +
        rename): a crash mid-save leaves either the previous file or the
        complete new one, never a torn mixture. Each record is followed
        by a CRC-32 over its catalog header and blob, so later bit
        corruption is detected at :meth:`load` time.

        Args:
            path: destination file.
            durable: fsync before the rename (default); ``False`` keeps
                atomicity but skips the flushes.
        """
        registry = self._registry()
        n = len(self._ids)
        with span("store.save", records=n), registry.timer("store.save_s").time():
            # Records that arrived without a summary (legacy-file loads)
            # are summarized here.
            self.columns(range(n))
            order = np.array(self._ids, dtype=object).argsort(kind="stable")
            # Version-4 footer: the query summaries, so a reloaded store
            # answers pruned queries without rescanning any blob.
            footer = footer_chunks(
                SummaryTable(self._ids, self._records["part"][:n],
                             self._records["n_parts"][:n], self._parts),
                self.summary_config,
            )
            header = _FILE_MAGIC + struct.pack("<BI", _FILE_VERSION, n)
            write_atomic(path, chain([header], self._framed(order), footer),
                         durable=durable)
        registry.counter("store_saves").inc()
        registry.counter("store_saved_bytes").inc(Path(path).stat().st_size)

    def _framed(self, order: np.ndarray) -> Iterator[bytes]:
        """The record region of a store file: rows ``order``, each blob
        after its frame header and before their CRC-32."""
        for lo in range(0, len(order), _SAVE_BATCH):
            rows = order[lo : lo + _SAVE_BATCH]
            frames = np.zeros(len(rows), _FRAME_DTYPE)
            frames["n_raw"] = self._records["n_raw"][rows]
            if (self._records["n_raw"][rows] >> 32).any():
                raise StorageError("a raw point count exceeds the file format's 32 bits")
            frames["bound"] = self._records["bound"][rows]
            rows = rows.tolist()
            frames["size"] = [len(self._blobs[row]) for row in rows]
            heads = frames.tobytes()
            for index, row in enumerate(rows):
                head = heads[16 * index : 16 * index + 16]
                blob = self._blobs[row]
                yield head
                yield blob
                yield _U32.pack(crc32(blob, crc32(head)))

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        verify: str = "raise",
        **store_kwargs: object,
    ) -> "TrajectoryStore":
        """Load a store written by :meth:`save`.

        Records are framed and checksummed one by one, then decoded a
        bounded chunk at a time straight into the columns; a bad record
        fails alone, not its chunk. The footer's summaries are parsed
        into the partition columns.

        Args:
            path: a store file of version 2 (legacy, no record
                checksums), 3 (per-record CRC-32) or 4 (version 3 plus
                the summary footer).
            verify: what to do with a record whose checksum, margin
                (negative or infinite) or blob fails verification:
                ``"raise"`` (default) aborts the load; ``"skip"`` drops
                the record, records the reason in :attr:`load_failures`,
                and keeps loading. File-level framing damage (truncation
                mid-record) always stops the load at that point — under
                ``"skip"`` the remainder is recorded as one failure,
                under ``"raise"`` it raises.
            **store_kwargs: forwarded to the constructor.

        Raises:
            CorruptRecordError: a record failed its checksum
                (``verify="raise"`` only).
            StorageError: on malformed files and records.
        """
        if verify not in ("raise", "skip"):
            raise ValueError(f"verify must be 'raise' or 'skip', got {verify!r}")
        path = Path(path)
        started = time.perf_counter()
        data = path.read_bytes()
        if len(data) < 9 or data[:4] != _FILE_MAGIC:
            raise StorageError(f"{path}: not a repro store file")
        version, count = struct.unpack_from("<BI", data, 4)
        if not _MIN_FILE_VERSION <= version <= _FILE_VERSION:
            raise StorageError(f"{path}: unsupported store version {version}")
        store = cls(**store_kwargs)  # type: ignore[arg-type]
        # Every record takes at least its 16-byte frame header; the spare
        # rows take the inserts that follow a server's load.
        store._records = _reserve(store._records, min(count, len(data) // 16))
        registry = store._registry()
        # Records wait here in file order; a framing-level failure drains
        # the queue first, so failures surface in file order.
        queue: list[tuple[int, _Encoded | ReproError]] = []
        queued_bytes = 0

        def drain() -> None:
            batch = [item for _, item in queue if isinstance(item, tuple)]
            outcomes = iter(store._register_blobs(batch, str(path)) if batch else ())
            for index, item in queue:
                error = next(outcomes) if isinstance(item, tuple) else item
                if error is None:
                    continue
                if isinstance(error, CorruptRecordError):
                    registry.counter("store_crc_failures").inc()
                if verify != "skip":
                    raise error
                registry.counter("store_load_record_failures").inc()
                store.load_failures.append(f"record {index}: {type(error).__name__}: {error}")
            queue.clear()

        view = memoryview(data)
        trailer = 4 if version >= 3 else 0
        offset = 9
        truncated = None
        for index in range(count):
            if offset + 16 > len(data):
                truncated = f"{path}: truncated record header (record {index})"
                break
            n_raw, bound_raw, blob_len = struct.unpack_from("<IdI", data, offset)
            if offset + 16 + blob_len + trailer > len(data):
                truncated = f"{path}: truncated record blob (record {index})"
                break
            end = offset + 16 + blob_len
            try:
                if version >= 3:
                    (stored_crc,) = struct.unpack_from("<I", data, end)
                    actual_crc = crc32(view[offset:end])
                    if stored_crc != actual_crc:
                        raise CorruptRecordError(
                            f"{path}: record {index} checksum mismatch "
                            f"(stored {stored_crc:#010x}, computed "
                            f"{actual_crc:#010x}) — the file was altered "
                            f"after write"
                        )
                if bound_raw < 0 or math.isinf(bound_raw):
                    raise StorageError(f"{path}: record {index}: error margin "
                                       f"{bound_raw!r} is not a margin")
                blob = data[offset + 16 : end]
                layout = blob_layout(blob)
            except ReproError as exc:
                queue.append((index, exc))
                drain()
            else:
                bound = None if math.isnan(bound_raw) else float(bound_raw)
                queue.append((index, (None, blob, layout, n_raw, bound)))
                queued_bytes += layout.payload_end - layout.points_offset
                if queued_bytes >= _LOAD_CHUNK_BYTES:
                    drain()
                    queued_bytes = 0
            offset = end + trailer
        drain()
        # The blobs are copies: keep only the bytes after the records (the
        # footer), so the file and the parsed footer are never held at once.
        size, rest = len(data), data[offset:]
        del view, data
        if truncated is not None:
            if verify != "skip":
                raise StorageError(truncated)
            store.load_failures.append(truncated)
        else:
            if version >= 4 and rest:
                try:
                    config, summaries, _ = parse_footer(rest, 0)
                except ReproError as exc:
                    if verify != "skip":
                        raise StorageError(
                            f"{path}: summary footer: {exc}"
                        ) from exc
                    # Quarantine the footer; summaries rebuild lazily.
                    registry.counter("store_summary_footer_failures").inc()
                    store.load_failures.append(
                        f"summary footer: {type(exc).__name__}: {exc}"
                    )
                else:
                    store.summary_config = config
                    store._adopt_summaries(summaries)
                rest = b""
            if rest:
                raise StorageError(f"{path}: trailing bytes after records")
        registry.counter("store_loads").inc()
        registry.counter("store_loaded_bytes").inc(size)
        registry.timer("store.load_s").observe(time.perf_counter() - started)
        return store

    def _adopt_summaries(self, table: SummaryTable) -> None:
        """Take a freshly loaded store's summaries from its footer; entries
        of ids the record region lacks are dropped."""
        rows = np.fromiter((self._row.get(key, -1) for key in table.ids), np.int64,
                           len(table.ids))
        found = rows >= 0
        self._records["part"][rows[found]] = table.first[found]
        self._records["n_parts"][rows[found]] = table.count[found]
        self._parts = table.parts
        self._n_parts = len(table.parts)
        self._dead_parts = 0
        self._retire_parts(int(table.count[~found].sum()))


def _checked_margin(bound: float | None, key: str) -> float | None:
    """``bound``, refused with a :class:`StorageError` unless it is ``None``
    or a margin: a negative, NaN or infinite one breaks every ``possibly``
    query once stored."""
    if bound is not None and not (math.isfinite(bound) and bound >= 0.0):
        raise StorageError(f"error margin {bound!r} of {key!r} is not a margin: "
                           f"give a finite, non-negative number or None")
    return bound


def effective_query_box(
    box: BBox, rec: StoredRecord | RecordRow | LiveSession, mode: str
) -> BBox | None:
    """The box to test a record's (or a live session's) geometry against.

    Turns the recorded error margin into the three answer semantics of
    :meth:`TrajectoryStore.query_bbox` (``stored`` / ``possibly`` /
    ``definitely``); shared by the query engine, for stored records and
    live sessions alike, and the brute-force baseline, so all answer
    identically.
    """
    if mode == "stored":
        return box
    bound = rec.sync_error_bound_m
    if mode == "possibly":
        # Unknown margin: fall back to the stored-geometry test.
        return box.expanded(bound if bound is not None else 0.0)
    # mode == "definitely"
    if bound is None:
        return None
    if box.width <= 2 * bound or box.height <= 2 * bound:
        return None  # the box cannot certify anything this coarse
    return BBox(
        box.min_x + bound, box.min_y + bound,
        box.max_x - bound, box.max_y - bound,
    )
