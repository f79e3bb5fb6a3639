"""Per-session write-ahead logging for the trajectory-ingestion service.

The serve tier's crash-safety substrate: every state-changing request
(``open``, ``append``, the post-flush truncation marker) is staged as
one CRC-prefixed JSON line — the same ``<crc32 hex8> <payload>`` line
format as the PR-2 checkpoint journal, via
:func:`repro.io_util.encode_crc_line` — into an append-only segment
file, and made durable by a **group commit** (one ``write`` + one
``fsync`` covering every record staged since the last commit) *before*
the response is acknowledged. Because the online compressors are
deterministic and streaming == batch is bit-identical, replaying the
surviving records through the registered
:class:`~repro.streaming.base.OnlineCompressor` factories reconstructs
every session's acknowledged state exactly.

Layout: one directory per server, segments named ``seg-<n>.wal`` and
written strictly in order. The writer holds an exclusive lock on the
directory's ``LOCK`` file from before recovery until it closes, so a
second writer on the same directory is refused instead of recovering
and appending beside the first. Records carry the session id, so recovery
demultiplexes the shared log back into per-session streams:

* ``{"k": "o", "s": id, "spec": spec}`` — session opened. It
  supersedes an earlier session of the same id that has no flush marker
  (one whose flush the store refused): the server opens an id only
  once its earlier session has left the live table;
* ``{"k": "a", "s": id, "q": seq, "f": "<base64>"}`` — one
  acknowledged append batch with its monotonic per-session sequence
  number and the flat ``(t, x, y)`` array packed as little-endian
  IEEE-754 doubles (bit-exact, and ~8x cheaper to encode than JSON
  float text; the scan also accepts the older plain-list form);
* ``{"k": "r", "s": id, "b": budget}`` — the session's point budget was
  renegotiated (degraded admission). Ordered with the appends: a
  replayed renegotiation evicts exactly the points the live one did
  only if it runs at the same position in the session's history;
* ``{"k": "f", "s": id}`` — the session was durably flushed into the
  store; its earlier records are dead. A segment is deleted only when
  every session recorded in it has such a marker — truncation strictly
  *after* a durable store flush — and, when it holds markers, only
  after the older segments holding the records they retire: a rescan
  must never find those records without their marker.

A crash can only damage bytes past the last fsync, i.e. records that
were never acknowledged, so recovery drops everything from the first
damaged line onward (counting what it dropped) and keeps the intact
prefix — and the writer physically truncates the damaged bytes out of
the segment before accepting new appends, so a later restart can never
rediscover old damage and discard records acknowledged since. fsync
failure is **sticky**: durability of everything staged
since the last successful commit is unknown, so the writer poisons
itself, the server refuses further appends with ``wal-failure``, and a
restart recovers the last-known-durable state — the PostgreSQL
fsync-panic stance, scaled to one process.
"""

from __future__ import annotations

import asyncio
import json
import os
import struct
from base64 import b64decode, b64encode
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from repro.exceptions import WalError
from repro.io_util import decode_crc_line, encode_crc_line, fsync_directory, lock_file
from repro.serve.faults import FaultInjector
from repro.types import Fix

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "SEGMENT_PREFIX",
    "SEGMENT_SUFFIX",
    "LOCK_NAME",
    "RecoveredSession",
    "WalScan",
    "WalWriter",
    "scan_wal",
]

#: Rotate the active segment once it grows past this many bytes.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".wal"
#: The file in a WAL directory whose lock a writer holds.
LOCK_NAME = "LOCK"


def _segment_path(directory: Path, index: int) -> Path:
    return directory / f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def _segment_index(path: Path) -> "int | None":
    name = path.name
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    try:
        return int(name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])
    except ValueError:
        return None


@dataclass
class RecoveredSession:
    """One session's replayable state as reassembled from the log.

    ``ops`` preserves the commit order of every state-changing record:
    ``("a", seq, fixes)`` for an acknowledged append batch,
    ``("r", budget)`` for a budget renegotiation. Replaying them in
    order through the deterministic compressors reconstructs the
    session bit-identically — a renegotiation's evictions depend on
    which appends preceded it, so the interleaving matters.
    """

    session_id: str
    spec: str
    #: State-changing records in commit order (see class docstring).
    ops: "list[tuple]" = field(default_factory=list)
    #: True when a flush marker followed — nothing left to recover.
    flushed: bool = False

    @property
    def appends(self) -> "list[tuple[int, list[Fix]]]":
        """Acknowledged append batches in commit order: ``(seq, fixes)``."""
        return [(op[1], op[2]) for op in self.ops if op[0] == "a"]

    @property
    def last_seq(self) -> int:
        appends = self.appends
        return appends[-1][0] if appends else 0

    @property
    def n_fixes(self) -> int:
        return sum(len(fixes) for _, fixes in self.appends)


@dataclass
class WalScan:
    """Everything a startup scan learned from the surviving segments."""

    sessions: "dict[str, RecoveredSession]" = field(default_factory=dict)
    segment_indices: "list[int]" = field(default_factory=list)
    #: Per segment index: session ids with live (unflushed) records.
    live_by_segment: "dict[int, set[str]]" = field(default_factory=dict)
    #: Per segment index: the older segments holding records that its
    #: flush markers retire (it must outlive them).
    pinned_by: "dict[int, set[int]]" = field(default_factory=dict)
    records: int = 0
    #: Lines discarded from the first damaged line onward (torn tail).
    dropped_lines: int = 0
    #: Index of the segment holding the first damaged line (None = no
    #: damage), and the byte offset of its intact prefix — where the
    #: writer must physically truncate so the damage cannot be
    #: rediscovered on a *later* restart and eat records acknowledged
    #: since (see :meth:`WalWriter._repair_torn_tail`).
    damaged_segment: "int | None" = None
    damaged_offset: int = 0

    @property
    def live_sessions(self) -> "dict[str, RecoveredSession]":
        """Sessions that still need recovery (no flush marker)."""
        return {
            sid: rec for sid, rec in self.sessions.items() if not rec.flushed
        }


def _parse_record(payload: str) -> "dict | None":
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def _fixes_from_flat(flat: Sequence[float]) -> "list[Fix]":
    strided = iter(flat)
    return list(map(Fix._make, zip(strided, strided, strided)))


def _pack_fixes(fixes: Iterable[Fix]) -> str:
    flat = list(chain.from_iterable(fixes))  # Fix is a (t, x, y) tuple
    return b64encode(struct.pack(f"<{len(flat)}d", *flat)).decode("ascii")


def _unpack_fixes(payload: object) -> "list[Fix] | None":
    """Decode an append record's fix payload (packed or legacy list)."""
    if isinstance(payload, list):
        return _fixes_from_flat(payload)
    if not isinstance(payload, str):
        return None
    try:
        raw = b64decode(payload.encode("ascii"), validate=True)
        flat = struct.unpack(f"<{len(raw) // 8}d", raw)
    except (ValueError, struct.error):
        return None
    return _fixes_from_flat(flat) if len(flat) % 3 == 0 else None


def _retire(
    sid: str, index: int, live: "dict[int, set[str]]", pins: "dict[int, set[int]]"
) -> None:
    """Segment ``index`` holds ``sid``'s flush marker: ``sid`` is live
    nowhere now, and ``index`` is pinned by the older segments that
    held its records."""
    for other, members in live.items():
        if sid in members:
            members.discard(sid)
            if other != index:
                pins.setdefault(index, set()).add(other)


def scan_wal(directory: "str | Path") -> WalScan:
    """Read every surviving segment into per-session replay streams.

    Damage handling follows the append-only contract: a crash can only
    tear bytes that were never acknowledged, so scanning stops at the
    first damaged or unparsable line and everything from there onward
    (including later segments — they postdate the damage) is discarded
    and counted in :attr:`WalScan.dropped_lines`. The intact prefix is
    always recovered; the scan never refuses. The first damaged line's
    location is reported via :attr:`WalScan.damaged_segment` /
    :attr:`WalScan.damaged_offset` so the writer can cut it out of the
    file before accepting new appends.
    """
    directory = Path(directory)
    scan = WalScan()
    if not directory.is_dir():
        return scan
    segments = sorted(
        (index, path)
        for path in directory.iterdir()
        if (index := _segment_index(path)) is not None
    )
    scan.segment_indices = [index for index, _ in segments]
    damaged = False

    def mark_damage(index: int, offset: int) -> None:
        nonlocal damaged
        damaged = True
        scan.damaged_segment = index
        scan.damaged_offset = offset
        scan.dropped_lines += 1

    for index, path in segments:
        live = scan.live_by_segment.setdefault(index, set())
        raw_lines = path.read_bytes().split(b"\n")
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()
        offset = 0
        for raw in raw_lines:
            line_start, offset = offset, offset + len(raw) + 1
            if damaged:
                scan.dropped_lines += 1
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                # A torn tail can end in arbitrary bytes; garbage that
                # is not even text is damage, not a scan crash.
                mark_damage(index, line_start)
                continue
            payload = decode_crc_line(line)
            record = None if payload is None else _parse_record(payload)
            if record is None:
                mark_damage(index, line_start)
                continue
            kind = record.get("k")
            sid = record.get("s")
            if not isinstance(sid, str):
                mark_damage(index, line_start)
                continue
            if kind == "o":
                scan.records += 1
                scan.sessions[sid] = RecoveredSession(sid, str(record.get("spec")))
                live.add(sid)
            elif kind == "a":
                seq = record.get("q")
                fixes = _unpack_fixes(record.get("f"))
                if not isinstance(seq, int) or fixes is None:
                    # The CRC is intact but the payload is unusable:
                    # that is corruption, not a torn write — silently
                    # skipping it would drop an acknowledged batch
                    # mid-stream while still applying later ones.
                    mark_damage(index, line_start)
                    continue
                scan.records += 1
                session = scan.sessions.get(sid)
                if session is None or session.flushed:
                    # An append with no live open record: the open was
                    # in a segment already truncated away; nothing to
                    # attach it to.
                    continue
                session.ops.append(("a", seq, fixes))
                live.add(sid)
            elif kind == "r":
                budget = record.get("b")
                if not isinstance(budget, int):
                    mark_damage(index, line_start)
                    continue
                scan.records += 1
                session = scan.sessions.get(sid)
                if session is None or session.flushed:
                    continue
                session.ops.append(("r", budget))
                live.add(sid)
            elif kind == "f":
                scan.records += 1
                session = scan.sessions.get(sid)
                if session is not None:
                    session.flushed = True
                _retire(sid, index, scan.live_by_segment, scan.pinned_by)
            else:
                scan.records += 1
    return scan


class WalWriter:
    """Group-committed append-only log over rotating segments.

    Staging (:meth:`stage_open` / :meth:`stage_append` /
    :meth:`stage_flushed`) is cheap and synchronous — records buffer in
    memory. :meth:`commit` makes everything staged so far durable with
    one write + one fsync; concurrent committers coalesce onto a single
    flush (group commit), which is what keeps WAL-on throughput within
    a constant of WAL-off under concurrency. Construction locks the
    directory (until :meth:`close`), scans it, exposes the surviving
    sessions as :attr:`recovered`,
    garbage-collects fully-flushed segments, and starts a fresh segment
    strictly after the survivors. Once the sessions are replayed,
    :meth:`release_recovered` drops the scan's append batches.

    Args:
        directory: the WAL directory (created if absent).
        segment_bytes: rotate the active segment past this size.
        durable: fsync on commit; ``False`` keeps the format (tests).
        faults: optional :class:`FaultInjector` (tests only).

    Raises:
        WalError: another writer holds the directory's lock.
    """

    def __init__(
        self,
        directory: "str | Path",
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        durable: bool = True,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._owner = lock_file(self.directory / LOCK_NAME)
        if self._owner is None:
            raise WalError(f"WAL directory {self.directory} is in use by another writer")
        self.segment_bytes = int(segment_bytes)
        self.durable = durable
        self.faults = faults
        try:
            self.recovered = scan_wal(self.directory)
            self._recovered_sessions = len(self.recovered.live_sessions)
            self._repair_torn_tail()
            #: Per existing segment: sessions with live records in it.
            self._live: "dict[int, set[str]]" = {
                index: set(self.recovered.live_by_segment.get(index, ()))
                for index in self.recovered.segment_indices
            }
            self._pins = {
                index: set(pins) for index, pins in self.recovered.pinned_by.items()
            }
            self._segment_index = max(self.recovered.segment_indices, default=0) + 1
            # Segments every session has flushed out of are already dead —
            # as are segments that postdate a torn tail (the scan discarded
            # their records, so their bytes must not survive either).
            self._reclaim()
        except BaseException:
            # A writer that failed to open holds no lock.
            self._owner.close()
            raise
        self._segment_written = 0
        self._handle: "object | None" = None  # BinaryIO of active segment
        self._pending: "list[tuple[str, str, dict]]" = []
        self._staged_records = 0
        self._committed_records = 0
        self._commits = 0
        self._commit_failures = 0
        self._dirty: "set[str]" = set()
        self._failed: "BaseException | None" = None
        self._lock = asyncio.Lock()

    def _repair_torn_tail(self) -> None:
        """Physically cut the first damaged line out of its segment.

        The scan already *ignores* everything from the first damaged
        line onward, but the bytes are still on disk. Left in place,
        the damage would be rediscovered by the scan of the *next*
        restart — and because that writer acknowledges new appends into
        later segments, the discard-everything-after-damage rule would
        then throw away acknowledged records. Truncating the segment to
        its intact prefix before accepting any new append keeps the
        rule sound across any number of restarts. (Segments wholly past
        the damage carry no live sessions after the scan and are
        unlinked by the constructor's dead-segment sweep.)
        """
        index = self.recovered.damaged_segment
        if index is None:
            return
        path = _segment_path(self.directory, index)
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError:
            return
        try:
            os.ftruncate(fd, self.recovered.damaged_offset)
            if self.durable:
                os.fsync(fd)
        finally:
            os.close(fd)

    def release_recovered(self) -> None:
        """Drop the scanned sessions once they have been replayed.

        Their append batches are the bulk of the scan and live on as
        compressor state after replay; keeping them would hold every
        recovered fix for the server's whole life. The recovery counts
        :meth:`stats` reports are kept.
        """
        self.recovered.sessions.clear()

    # ------------------------------------------------------------------ #
    # Staging
    # ------------------------------------------------------------------ #

    @property
    def failed(self) -> "BaseException | None":
        """The sticky commit failure, when one has happened."""
        return self._failed

    @property
    def pending_records(self) -> int:
        """Records staged but not yet durable."""
        return self._staged_records - self._committed_records

    def dirty_sessions(self) -> "set[str]":
        """Sessions with records staged since the last durable commit.

        After a commit failure these sessions' in-memory state may be
        ahead of the log; the server discards them so that what it
        serves never silently diverges from what a restart would
        recover.
        """
        return set(self._dirty)

    def check_writable(self) -> None:
        """Raise :exc:`~repro.exceptions.WalError` once a commit failed."""
        if self._failed is not None:
            raise WalError(f"write-ahead log is failed: {self._failed}")

    def _stage(self, kind: str, session_id: str, record: dict) -> None:
        # Serialisation is deferred to commit time so it runs in the
        # commit's worker thread, off the event loop (the request hot
        # path only appends a tuple here).
        self.check_writable()
        self._pending.append((kind, session_id, record))
        self._staged_records += 1
        self._dirty.add(session_id)

    def stage_open(self, session_id: str, spec: str) -> None:
        """Stage a session-open record (its compressor spec included)."""
        self._stage("o", session_id, {"k": "o", "s": session_id, "spec": spec})

    def stage_append(
        self, session_id: str, seq: int, fixes: Iterable[Fix]
    ) -> None:
        """Stage one append batch under its per-session sequence number."""
        self._stage(
            "a",
            session_id,
            {"k": "a", "s": session_id, "q": seq, "f": _pack_fixes(fixes)},
        )

    def stage_renegotiate(self, session_id: str, budget: int) -> None:
        """Stage a budget renegotiation (degraded admission)."""
        self._stage(
            "r", session_id, {"k": "r", "s": session_id, "b": int(budget)}
        )

    def stage_flushed(self, session_id: str) -> None:
        """Stage the truncation marker: the session reached the store."""
        self._stage("f", session_id, {"k": "f", "s": session_id})

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #

    async def commit(self) -> None:
        """Make everything staged so far durable (group commit).

        Concurrent callers coalesce: whoever takes the lock first
        flushes every record staged up to that instant (the write and
        fsync run in a worker thread so the event loop keeps serving),
        and followers whose records it covered return without another
        fsync.

        Raises:
            WalError: the write or fsync failed — now and on every
                later call (sticky; see the module docstring).
        """
        self.check_writable()
        target = self._staged_records
        if self._committed_records >= target:
            return
        async with self._lock:
            # Re-check after the wait: the lock holder we parked behind
            # may have poisoned the log. Proceeding would reopen the
            # closed handle and write records for sessions the server
            # just discarded — records a restart would then replay even
            # though their clients were told the commit failed.
            self.check_writable()
            if self._committed_records >= target:
                return
            group, staged = self._take_group()
            loop = asyncio.get_running_loop()
            try:
                written = await loop.run_in_executor(
                    None, self._encode_and_write, group
                )
            except BaseException as exc:
                raise self._poison(exc) from exc
            self._after_commit(group, staged, written)

    def commit_sync(self) -> None:
        """Blocking :meth:`commit` for synchronous callers (CLI, tests).

        Must not run concurrently with :meth:`commit` — it bypasses the
        commit lock (the server only calls it after the event loop's
        connection tasks are torn down).
        """
        self.check_writable()
        if self._committed_records >= self._staged_records:
            return
        group, staged = self._take_group()
        try:
            written = self._encode_and_write(group)
        except BaseException as exc:
            raise self._poison(exc) from exc
        self._after_commit(group, staged, written)

    def _take_group(self) -> "tuple[list[tuple[str, str, dict]], int]":
        group, self._pending = self._pending, []
        return group, self._staged_records

    def _poison(self, exc: BaseException) -> WalError:
        self._commit_failures += 1
        self._failed = exc
        self._close_handle()
        return WalError(
            f"write-ahead log commit failed ({type(exc).__name__}: {exc}); "
            f"refusing further writes until restart recovery"
        )

    def _encode_and_write(self, group: "list[tuple[str, str, dict]]") -> int:
        """Serialise + append + flush + fsync one group; returns bytes.

        Runs in the commit's worker thread for async callers, so the
        JSON/CRC encoding of the group overlaps with the event loop
        serving other requests.
        """
        encoded = "".join(
            encode_crc_line(
                json.dumps(record, separators=(",", ":"), sort_keys=True)
            )
            for _, _, record in group
        )
        data = encoded.encode("utf-8")
        self._write_bytes(data)
        return len(data)

    def _write_bytes(self, data: bytes) -> None:
        """Append + flush + fsync one group into the active segment."""
        if self.faults is not None:
            self.faults.fire("wal.write")
        if self._handle is None:
            path = _segment_path(self.directory, self._segment_index)
            self._handle = open(path, "ab")
            if self.durable:
                fsync_directory(self.directory)
        handle = self._handle
        handle.write(data)  # type: ignore[attr-defined]
        handle.flush()  # type: ignore[attr-defined]
        if self.faults is not None:
            self.faults.fire("wal.fsync")
        if self.durable:
            os.fsync(handle.fileno())  # type: ignore[attr-defined]
        if self.faults is not None:
            self.faults.fire("wal.commit")

    def _after_commit(
        self, group: "list[tuple[str, str, dict]]", staged: int, written: int
    ) -> None:
        """Durable-group bookkeeping: liveness, truncation, rotation."""
        live = self._live.setdefault(self._segment_index, set())
        flushed: "list[str]" = []
        for kind, sid, _ in group:
            if kind == "f":
                flushed.append(sid)
            else:
                live.add(sid)
        for sid in flushed:
            _retire(sid, self._segment_index, self._live, self._pins)
        self._segment_written += written
        self._committed_records = staged
        self._commits += 1
        # Sessions with records staged *while* this group's write was in
        # flight (they sit in ``_pending``) are not durable yet and must
        # stay dirty — a set-wide clear here would let the server keep
        # serving their in-memory state even if the next commit fails.
        self._dirty = {sid for _, sid, _ in self._pending}
        if self._segment_written >= self.segment_bytes:
            self._close_handle()
            self._segment_index += 1
            self._segment_written = 0
        self._reclaim()

    def _reclaim(self) -> None:
        """Truncate: unlink every closed segment nothing needs, oldest
        first — one with no live session, pinned by no surviving
        segment."""
        for index in sorted(self._live):
            if (index != self._segment_index and not self._live[index]
                    and not self._pins.get(index, set()) & self._live.keys()):
                del self._live[index]
                self._pins.pop(index, None)
                self._unlink_segment(index)

    def _unlink_segment(self, index: int) -> None:
        try:
            _segment_path(self.directory, index).unlink()
        except OSError:
            return
        if self.durable:
            fsync_directory(self.directory)

    def _close_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()  # type: ignore[attr-defined]
            except OSError:
                pass
            self._handle = None

    def close(self) -> None:
        """Close the active segment handle and release the directory's
        lock (safe to call repeatedly)."""
        self._close_handle()
        if self._owner is not None:
            self._owner.close()
            self._owner = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """JSON-ready snapshot for the ``stats`` verb."""
        return {
            "directory": str(self.directory),
            "failed": self._failed is not None,
            "segments": sorted(self._live) or [self._segment_index],
            "active_segment": self._segment_index,
            "staged_records": self._staged_records,
            "committed_records": self._committed_records,
            "pending_records": self.pending_records,
            "commits": self._commits,
            "commit_failures": self._commit_failures,
            "recovered_sessions": self._recovered_sessions,
            "recovered_records": self.recovered.records,
            "recovery_dropped_lines": self.recovered.dropped_lines,
        }
