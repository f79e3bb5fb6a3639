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

import itertools
import math
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

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
    ObjectSummary,
    SummaryConfig,
    build_summary,
    encode_footer,
    parse_footer,
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
        self._records: dict[str, StoredRecord] = {}
        self._summaries: dict[str, ObjectSummary] = {}
        #: The query catalog: sorted ids and their decoded extents, one
        #: row ``(start, end, min_x, min_y, max_x, max_y)`` per id;
        #: ``None`` after a mutation, rebuilt on the next lookup.
        self._catalog: tuple[np.ndarray, np.ndarray] | None = None
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
            StorageError: missing id, or duplicate id without ``replace``.
        """
        key = object_id or traj.object_id
        if not key:
            raise StorageError("trajectory has no object id and none was given")
        if key in self._records and not replace:
            raise StorageError(f"object id {key!r} already stored (use replace=True)")
        chosen = compressor if compressor is not None else self.compressor
        stored = chosen.compress(traj).compressed if chosen is not None else traj
        stored = stored.with_object_id(key)
        if sync_error_bound_m == "auto":
            upstream_bound = chosen.sync_error_bound() if chosen is not None else 0.0
        else:
            upstream_bound = sync_error_bound_m  # type: ignore[assignment]
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

        The sharded serve tier's merge primitive: the record's blob was
        produced by a compatible codec (workers and router share one
        configuration), so re-encoding would be pure waste — the blob is
        adopted verbatim and the catalog extents and indexes are rebuilt
        from its decoded points.

        Raises:
            StorageError: duplicate id without ``replace``.
            CorruptRecordError: the blob fails its codec checksum.
        """
        key = record.object_id
        if key in self._records and not replace:
            raise StorageError(f"object id {key!r} already stored (use replace=True)")
        self._register_one(
            key, record.blob, record.n_raw_points, record.sync_error_bound_m
        )

    def _register_one(
        self, key: str, blob: bytes, n_raw: int, bound: float | None
    ) -> StoredRecord:
        """Catalog, index and summarize one encoded blob under ``key``."""
        (result,) = self._register_blobs(
            [(key, blob, blob_layout(blob), n_raw, bound)], str(key), summarize=True
        )
        if isinstance(result, ReproError):
            raise result
        return result

    def _register_blobs(
        self, batch: list[_Encoded], source: str, *, summarize: bool = False
    ) -> list[StoredRecord | ReproError]:
        """Decode a batch of blobs in one numpy pass; register the healthy ones.

        Every mutation path ends here, so catalog extents always come
        from decoded points (the floats
        :func:`decode_trajectory` returns) and survive save and load
        unchanged. The batch pass makes :func:`decode_trajectory`'s
        checks; a blob failing them is decoded alone for its error.
        ``summarize`` builds each record's summary from the same decoded
        points; otherwise a stale one is dropped (a load reads them from
        the footer or builds them lazily).

        Returns:
            Per blob, its registered record or the error refusing it.
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
        starts, ends = t[firsts].tolist(), t[firsts + counts - 1].tolist()
        lows = np.minimum.reduceat(xy, firsts).tolist()
        highs = np.maximum.reduceat(xy, firsts).tolist()
        results: list[StoredRecord | ReproError] = []
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
            record = StoredRecord(key, blob, n_raw, layout.n_points, starts[j], ends[j],
                                  BBox(*lows[j], *highs[j]), bound)
            self._records[key] = record
            self._catalog = None
            if summarize:
                self._summaries[key] = build_summary(
                    key, blob, self.summary_config, rows[firsts[j] : firsts[j] + counts[j]]
                )
            else:
                self._summaries.pop(key, None)
            self._cache.pop(key, None)
            results.append(record)
        return results

    def merge_from(self, other: "TrajectoryStore", *, replace: bool = False) -> int:
        """Adopt every record of ``other`` into this store.

        Used when a drained shard fleet folds its per-worker partition
        files into one store file. Blobs move without re-encoding.

        Returns:
            How many records were adopted.

        Raises:
            StorageError: an id exists in both stores and ``replace`` is
                false (ids already adopted stay adopted).
        """
        for object_id in other.object_ids():
            self.adopt_record(other.record(object_id), replace=replace)
        return len(other)

    def remove(self, object_id: str) -> None:
        """Delete a stored trajectory.

        Raises:
            ObjectNotFoundError: for unknown ids.
        """
        if object_id not in self._records:
            raise ObjectNotFoundError(object_id)
        del self._records[object_id]
        self._summaries.pop(object_id, None)
        self._cache.pop(object_id, None)
        self._catalog = None

    # ------------------------------------------------------------------ #
    # Retrieval
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._records

    def object_ids(self) -> list[str]:
        """All stored ids, sorted."""
        return sorted(self._records)

    def record(self, object_id: str) -> StoredRecord:
        """Catalog entry (no decoding).

        Raises:
            ObjectNotFoundError: for unknown ids.
        """
        try:
            return self._records[object_id]
        except KeyError:
            raise ObjectNotFoundError(object_id) from None

    def get(self, object_id: str) -> Trajectory:
        """Decode the stored (compressed) trajectory."""
        cached = self._cache.get(object_id)
        if cached is not None:
            self._cache.move_to_end(object_id)
            return cached
        traj = decode_trajectory(self.record(object_id).blob)
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
        """Partition summary of a stored record (see :mod:`repro.query`).

        Summaries are built incrementally at insert/adopt time and
        persisted in the version-4 footer; records loaded from older
        files (or whose footer was quarantined) are summarized lazily
        here, one linear blob scan per record.

        Raises:
            ObjectNotFoundError: unknown id.
        """
        summary = self._summaries.get(object_id)
        if summary is None:
            summary = build_summary(
                object_id, self.record(object_id).blob, self.summary_config
            )
            self._summaries[object_id] = summary
        return summary

    def max_sync_error_bound(self) -> float:
        """The largest recorded error margin (0.0 when none are known)."""
        return max(
            (rec.sync_error_bound_m or 0.0 for rec in self._records.values()),
            default=0.0,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def candidates(
        self, t0: float, t1: float, box: BBox | None = None
    ) -> list[str]:
        """Ids whose time span meets ``[t0, t1]`` and, given ``box``, whose
        bbox meets it too; sorted.

        One closed-comparison mask over the catalog of decoded extents:
        the time test is exact, and the box test admits every record one
        of whose samples or segments touches ``box`` (a segment only
        meets a box its own bbox meets; see :mod:`repro.geometry.clip`).

        Raises:
            ValueError: for a reversed window.
        """
        if t1 < t0:
            raise ValueError(f"empty time window [{t0}, {t1}]")
        if self._catalog is None:
            ids = sorted(self._records)
            extents = itertools.chain.from_iterable(
                (rec.start_time, rec.end_time,
                 rec.bbox.min_x, rec.bbox.min_y, rec.bbox.max_x, rec.bbox.max_y)
                for rec in map(self._records.__getitem__, ids)
            )
            self._catalog = (
                np.array(ids, dtype=object),
                np.fromiter(extents, float, 6 * len(ids)).reshape(-1, 6),
            )
        ids, extents = self._catalog
        start, end, min_x, min_y, max_x, max_y = extents.T
        keep = (start <= t1) & (end >= t0)
        if box is not None:
            keep &= (min_x <= box.max_x) & (min_y <= box.max_y)
            keep &= (max_x >= box.min_x) & (max_y >= box.min_y)
        return ids[keep].tolist()

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
        records = self._records.values()
        return StoreStats(
            n_objects=len(self._records),
            n_raw_points=sum(rec.n_raw_points for rec in records),
            n_stored_points=sum(rec.n_stored_points for rec in records),
            raw_bytes=sum(rec.raw_bytes for rec in records),
            stored_bytes=sum(rec.stored_bytes for rec in records),
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
        with span("store.save", records=len(self._records)), \
                registry.timer("store.save_s").time():
            out = bytearray()
            out += _FILE_MAGIC
            out += struct.pack("<BI", _FILE_VERSION, len(self._records))
            for key in sorted(self._records):
                rec = self._records[key]
                bound = (
                    rec.sync_error_bound_m
                    if rec.sync_error_bound_m is not None
                    else float("nan")
                )
                framed = struct.pack("<IdI", rec.n_raw_points, bound, len(rec.blob))
                framed += rec.blob
                out += framed
                out += struct.pack("<I", crc32(framed))
            # Version-4 footer: the query summaries, so a reloaded store
            # answers pruned queries without rescanning any blob. Records
            # that arrived without a summary (legacy-file loads) are
            # summarized here.
            out += encode_footer(
                {key: self.summary(key) for key in self._records},
                self.summary_config,
            )
            write_atomic(path, out, durable=durable)
        registry.counter("store_saves").inc()
        registry.counter("store_saved_bytes").inc(len(out))

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
        bounded chunk at a time; a bad record fails alone, not its chunk.

        Args:
            path: a store file of version 2 (legacy, no record
                checksums), 3 (per-record CRC-32) or 4 (version 3 plus
                the summary footer).
            verify: what to do with a record whose checksum or blob fails
                verification: ``"raise"`` (default) aborts the load;
                ``"skip"`` drops the record, records the reason in
                :attr:`load_failures`, and keeps loading. File-level
                framing damage (truncation mid-record) always stops the
                load at that point — under ``"skip"`` the remainder is
                recorded as one failure, under ``"raise"`` it raises.
            **store_kwargs: forwarded to the constructor.

        Raises:
            CorruptRecordError: a record failed its checksum
                (``verify="raise"`` only).
            StorageError: on malformed files.
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
                if not isinstance(error, ReproError):
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
        if truncated is not None:
            if verify != "skip":
                raise StorageError(truncated)
            store.load_failures.append(truncated)
        else:
            if version >= 4 and offset < len(data):
                try:
                    config, summaries, offset = parse_footer(data, offset)
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
                    offset = len(data)
                else:
                    store.summary_config = config
                    store._summaries = {
                        key: value
                        for key, value in summaries.items()
                        if key in store._records
                    }
            if offset != len(data):
                raise StorageError(f"{path}: trailing bytes after records")
        registry.counter("store_loads").inc()
        registry.counter("store_loaded_bytes").inc(len(data))
        registry.timer("store.load_s").observe(time.perf_counter() - started)
        return store


def effective_query_box(
    box: BBox, rec: StoredRecord | LiveSession, mode: str
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
