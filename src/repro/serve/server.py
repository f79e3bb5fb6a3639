"""The asyncio trajectory-ingestion server.

A stdlib-only TCP server speaking the NDJSON protocol of
:mod:`repro.serve.protocol`. Each connection gets a **bounded** inbound
queue: a reader task parses lines off the socket and blocks when the
queue is full (which stops reading and lets TCP flow control push back
on the producer), while a processor task drains the queue, dispatches to
the shared :class:`~repro.serve.session.SessionManager`, and writes each
response followed by ``await writer.drain()`` — so a slow consumer
throttles the server instead of growing its buffers.

Sessions are keyed by object id and are **server-global**, not
per-connection: a tracker that reconnects can keep appending to its open
session, and a connection that vanishes leaves its sessions to the idle
sweeper, which evicts *and flushes* them (no data loss). Retained fixes
stream back in each ``append`` response the moment the opening window
decides them, in decision order.

Usage::

    server = TrajectoryServer(port=0, store_path="fleet.rsto")
    await server.start()          # port 0 -> server.port has the real one
    ...
    await server.stop()

or from the command line: ``repro serve --port 8765 --store fleet.rsto``.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from pathlib import Path
from typing import IO, Callable

from repro.exceptions import ObjectNotFoundError, ReproError, ServeError, WalError
from repro.geometry.bbox import BBox
from repro.io_util import lock_file
from repro.obs import LATENCY_BUCKETS_MS, Registry, span
# Not called here: benchmarks/layered/layer_trace.py patches ``window_hit``
# on this module by name, and without the name every traced serve process
# dies at start-up.
from repro.query.baseline import window_hit  # noqa: F401
from repro.query.engine import QueryEngine
from repro.serve.faults import FaultInjector
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    parse_fix,
    parse_fixes,
    parse_flat_fixes,
    render_fixes,
)
from repro.serve.session import SessionManager
from repro.serve.wal import WalWriter
from repro.storage.store import TrajectoryStore
from repro.streaming.registry import make_online_compressor

__all__ = ["TrajectoryServer"]

#: Append-latency histogram buckets in milliseconds: loopback appends
#: sit well under a millisecond, WAN round trips in the tens. Shared
#: with the rest of the codebase via :mod:`repro.obs`.
_LATENCY_BUCKETS_MS = LATENCY_BUCKETS_MS

#: Queue sentinels: end-of-connection, and an oversized inbound line.
_EOF = object()
_OVERSIZE = object()


class TrajectoryServer:
    """Ingestion service: live fixes in, compressed stored trajectories out.

    Args:
        host, port: bind address; ``port=0`` picks an ephemeral port
            (read :attr:`port` after :meth:`start`).
        store: destination store; created empty when omitted. When
            ``store_path`` names an existing file, the store is loaded
            from it instead — restarting a server resumes its data.
        store_path: when set, every session flush atomically re-persists
            the store file (see :mod:`repro.serve.session`). The server
            holds an exclusive lock on ``<store_path>.lock`` from before
            the load until it stops, and refuses a store another server
            holds.
        max_sessions: admission limit on live sessions.
        idle_timeout_s: inactivity after which a session is evictable.
        sweep_interval_s: period of the background eviction sweep.
        queue_size: per-connection bounded inbound queue (backpressure).
        durable: fsync on store persists.
        replace: allow flushes to overwrite already-stored ids.
        default_spec: compressor spec applied to ``open`` requests that
            carry none (the CLI's ``--algorithm`` flag); an open with an
            explicit spec still wins. One that does not build raises
            here, as :func:`~repro.streaming.make_online_compressor` does.
        wal_dir: when set, a :class:`~repro.serve.wal.WalWriter` over
            this directory makes every acknowledged request durable
            (group commit before the response is written), and
            :meth:`start` replays its surviving sessions. Crash safety
            costs one fsync per group of in-flight requests. The
            writer locks the directory as the store file is locked.
        degrade_budget_floor: enables degraded admission — under
            ``max_sessions`` pressure, live budget-capable sessions are
            renegotiated down (budgets multiplied by
            ``degrade_budget_factor``, never below this floor) and the
            new session admitted, instead of rejecting it (see
            :class:`~repro.serve.session.SessionManager`).
        degrade_budget_factor: budget multiplier under pressure
            (0 < factor < 1; default 0.5).
        shard: name of this worker's shard when it serves as part of a
            ``--workers N`` fleet; purely a label, echoed in ``stats``.
        faults: optional fault injector threaded into the WAL (tests
            only).
        metrics: shared registry; one is created if absent.
        clock: monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        store: TrajectoryStore | None = None,
        store_path: str | Path | None = None,
        max_sessions: int = 1024,
        idle_timeout_s: float = 300.0,
        sweep_interval_s: float = 5.0,
        queue_size: int = 64,
        durable: bool = True,
        replace: bool = False,
        default_spec: str | None = None,
        wal_dir: str | Path | None = None,
        degrade_budget_floor: int | None = None,
        degrade_budget_factor: float = 0.5,
        shard: str | None = None,
        faults: FaultInjector | None = None,
        metrics: Registry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if sweep_interval_s <= 0:
            raise ValueError(
                f"sweep_interval_s must be positive, got {sweep_interval_s}"
            )
        if default_spec is not None:
            # Refused before the store loads or the WAL opens: a server
            # that bound with a bad default would fail every open that
            # relies on it.
            make_online_compressor(default_spec)
        self.host = host
        self.port = int(port)
        #: Shard name when this server is one worker of a sharded fleet
        #: (``repro serve --workers N``); surfaces in ``stats`` so the
        #: router's merged view can attribute per-worker payloads.
        self.shard = shard
        self.default_spec = default_spec
        self.queue_size = int(queue_size)
        self.sweep_interval_s = float(sweep_interval_s)
        self.metrics = metrics if metrics is not None else Registry()
        store_path = None if store_path is None else Path(store_path)
        # Both locks are taken before anything is read: a second server on
        # the same store file or WAL directory is refused untouched.
        self._closed = False
        self._store_lock: IO[bytes] | None = None
        if store_path is not None:
            self._store_lock = lock_file(store_path.with_name(f"{store_path.name}.lock"))
            if self._store_lock is None:
                raise ServeError(f"store file {store_path} is in use by another server",
                                 code="storage")
        self.wal: WalWriter | None = None
        try:
            if wal_dir is not None:
                self.wal = WalWriter(wal_dir, durable=durable, faults=faults)
            if store is None:
                if store_path is not None and store_path.exists():
                    store = TrajectoryStore.load(store_path, metrics=self.metrics)
                else:
                    store = TrajectoryStore(metrics=self.metrics)
            else:
                # Route the store's flush/load instrumentation into this
                # server's registry so the STATS verb sees it.
                store.metrics = self.metrics
            self.manager = SessionManager(
                store,
                max_sessions=max_sessions,
                idle_timeout_s=idle_timeout_s,
                store_path=store_path,
                durable=durable,
                replace=replace,
                wal=self.wal,
                degrade_budget_floor=degrade_budget_floor,
                degrade_budget_factor=degrade_budget_factor,
                metrics=self.metrics,
                clock=clock,
            )
            #: Summary-pruned read path over the same store the sessions
            #: flush into, with the live sessions as a second source: an
            #: acked fix is queryable before its session closes.
            self.engine = QueryEngine(
                self.store, metrics=self.metrics, live=self.manager.sessions
            )
        except BaseException:
            # A server that failed to open holds no lock.
            self._release()
            raise
        self._latency = self.metrics.histogram(
            "append_latency_ms", buckets=_LATENCY_BUCKETS_MS
        )
        self._server: asyncio.AbstractServer | None = None
        self._sweeper: asyncio.Task | None = None
        self._connections: set[asyncio.Task | None] = set()
        self._started_at: float | None = None
        self._clock = clock
        self._draining = False
        #: What :meth:`start`'s WAL replay recovered (None = no WAL).
        self.recovery: dict | None = None

    @property
    def store(self) -> TrajectoryStore:
        """The store flushed sessions land in."""
        return self.manager.store

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "TrajectoryServer":
        """Bind the listening socket and start the eviction sweeper.

        When a WAL is configured, its surviving sessions are replayed
        into live state *before* the socket opens: a client that
        reconnects after a crash finds its session at the exact
        sequence number the server last acknowledged.
        """
        if self._server is not None:
            raise ServeError("server already started", code="internal")
        if self.wal is not None:
            self.recovery = self.manager.recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self._clock()
        self._sweeper = asyncio.create_task(self._sweep_loop())
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (call :meth:`start` first)."""
        if self._server is None:
            raise ServeError("server not started", code="internal")
        await self._server.serve_forever()

    async def run(self) -> None:
        """Start and serve until cancelled; stops cleanly on the way out."""
        await self.start()
        try:
            await self.serve_forever()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop listening, cancel the sweeper, persist the store file.

        Live sessions stay unflushed — with a WAL they survive in the
        log and a restart recovers them; use :meth:`drain` to flush
        everything out instead.
        """
        await self._shutdown_tasks()
        if self.wal is not None and not self.wal.failed:
            # Make any staged-but-uncommitted truncation markers durable
            # so a clean stop does not leave dead segments behind.
            with contextlib.suppress(ServeError):
                self.wal.commit_sync()
        self.close()

    async def drain(self) -> dict:
        """Graceful shutdown: stop accepting, flush every session, persist.

        The SIGTERM/SIGINT path. Every live session is finalized and
        landed in the store exactly as a client ``close`` would land it,
        truncation markers are committed, and the store file is
        persisted — after a drain the WAL directory is empty of live
        sessions and a restart recovers nothing.

        Returns:
            ``{"flushed": [ids...], "failed": n}``.
        """
        self._draining = True
        await self._shutdown_tasks()
        before = self.metrics.counter("drain_flush_failures").value
        flushed = self.manager.flush_all()
        failed = self.metrics.counter("drain_flush_failures").value - before
        if self.wal is not None and not self.wal.failed:
            with contextlib.suppress(ServeError):
                self.wal.commit_sync()
        self.close()
        return {"flushed": flushed, "failed": failed}

    def close(self) -> None:
        """Persist the store file and release the WAL and store locks.

        :meth:`stop` and :meth:`drain` end here; after them, or after
        :meth:`abort`, it does nothing.
        """
        if not self._closed:
            self.manager.persist()
            self._release()

    def _release(self) -> None:
        """Release the WAL and store locks (a crashed process's kernel
        would)."""
        if self.wal is not None:
            self.wal.close()
        if self._store_lock is not None:
            self._store_lock.close()
            self._store_lock = None
        self._closed = True

    def abort(self) -> None:
        """Crash simulation: drop everything without flushing a byte.

        Closes the listening socket and the WAL handle with no commit,
        no flush and no persist — the harness uses this to model a hard
        failure inside one process, then proves recovery from the WAL
        alone.
        """
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            self._server = None
        for task in list(self._connections):
            if task is not None:
                task.cancel()
        self._connections.clear()
        self._release()

    async def _shutdown_tasks(self) -> None:
        """Stop the listener, sweeper and connection tasks."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            if task is not None:
                task.cancel()
        if self._connections:
            await asyncio.gather(
                *(t for t in self._connections if t is not None),
                return_exceptions=True,
            )
            self._connections.clear()

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval_s)
            await self._sweep()

    async def _sweep(self) -> None:
        """One idle sweep: evict (and flush) the idle sessions."""
        self.manager.evict_idle()
        if self.wal is not None and self.wal.pending_records:
            # Evictions stage truncation markers outside any request;
            # commit them here so idle segments can be reclaimed. A
            # failure sticks and the next request reports it.
            with contextlib.suppress(ServeError):
                await self.wal.commit()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.counter("connections_opened").inc()
        self.metrics.gauge("connections_live").inc()
        self._connections.add(asyncio.current_task())
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_size)
        depth = self.metrics.gauge("queue_depth")
        processor = asyncio.create_task(self._process_queue(queue, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded MAX_LINE_BYTES: report, then hang up —
                    # the stream is no longer line-synchronized.
                    await queue.put(_OVERSIZE)
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                # A full queue blocks here, which stops socket reads and
                # lets TCP flow control throttle the producer.
                await queue.put(line)
                depth.inc()
            await queue.put(_EOF)
            await processor
        except asyncio.CancelledError:
            # Server shutdown cancelled the connection mid-flight. Swallow
            # the cancellation (a handler task that *ends* cancelled makes
            # asyncio's stream machinery log a spurious error) and fall
            # through to the teardown below.
            processor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await processor
        finally:
            self._connections.discard(asyncio.current_task())
            # Account for lines the cancelled processor never consumed,
            # so the queue-depth gauge cannot drift on teardown.
            while not queue.empty():
                if queue.get_nowait() not in (_EOF, _OVERSIZE):
                    depth.dec()
            writer.close()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await writer.wait_closed()
            self.metrics.counter("connections_closed").inc()
            self.metrics.gauge("connections_live").dec()

    async def _process_queue(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        write_ok = True
        depth = self.metrics.gauge("queue_depth")
        while True:
            item = await queue.get()
            if item is _EOF:
                return
            if item is _OVERSIZE:
                response = self._counted(
                    error_response(
                        None,
                        "bad-request",
                        f"protocol line exceeds {MAX_LINE_BYTES} bytes; "
                        f"closing connection",
                    )
                )
            else:
                depth.dec()
                response = self._handle_line(item)
            response = await self._durable(response)
            if write_ok:
                try:
                    writer.write(encode_message(response))
                    # Slow consumers block us here, not in kernel buffers.
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    # The socket is gone, but keep draining the queue so
                    # the reader task never deadlocks on a full queue; it
                    # will see the reset and put the _EOF sentinel.
                    write_ok = False
            if item is _OVERSIZE:
                return

    # ------------------------------------------------------------------ #
    # Request dispatch (synchronous: one event-loop thread, no locks)
    # ------------------------------------------------------------------ #

    def _counted(self, response: dict) -> dict:
        """``response``, counted in ``requests_failed`` if it is ``ok: false``.

        Every refusal the server sends passes here once: each answer of
        :meth:`_handle_line`, the oversize-line reply, and the
        ``wal-failure`` that replaces an acknowledgement the durability
        barrier could not make durable.
        """
        if not response["ok"]:
            self.metrics.counter("requests_failed").inc()
        return response

    def _handle_line(self, line: bytes) -> dict:
        """Answer one request line (a refusal counts in ``requests_failed``)."""
        return self._counted(self._dispatch(line))

    async def _durable(self, response: dict) -> dict:
        """The durability barrier: ``response`` once what was staged is
        on disk, or the refusal that replaces it.

        Whatever a request staged must hit disk before its
        acknowledgement leaves the process; concurrent connections
        parked on the same commit ride one fsync (group commit). Once a
        commit has failed nothing more can be staged, so later replies
        (``stats``, queries, ``resume``) pass as they are.
        """
        if self.wal is not None and self.wal.pending_records and not self.wal.failed:
            try:
                await self.wal.commit()
            except WalError as exc:
                # Unknown durability: anything staged since the last
                # good commit may or may not be on disk. Discard the
                # affected sessions (a restart recovers their durable
                # prefix) and tell the client instead of acking.
                for sid in self.wal.dirty_sessions():
                    self.manager.discard(sid)
                failure = error_response(
                    response.get("op"), exc.code, str(exc), response.get("session")
                )
                # A refusal was counted when it was answered; an
                # acknowledgement turned into one counts now.
                return self._counted(failure) if response["ok"] else failure
        return response

    def _dispatch(self, line: bytes) -> dict:
        try:
            message = decode_line(line)
        except ServeError as exc:
            return error_response(None, exc.code, str(exc))
        op = message.get("op")
        session = message.get("session")
        session_str = session if isinstance(session, str) else None
        try:
            if op == "open":
                return self._op_open(message)
            if op == "append":
                return self._op_append(message)
            if op == "resume":
                return self._op_resume(message)
            if op == "close":
                return self._op_close(message)
            if op == "flush":
                return self._op_flush()
            if op == "stats":
                return ok_response("stats", stats=self.stats())
            if op == "query":
                return self._op_query(message)
            if op == "summaries":
                return self._op_summaries(message)
            return error_response(
                op if isinstance(op, str) else None,
                "bad-request",
                f"unknown op {op!r}; valid ops: open, append, resume, "
                f"close, flush, stats, query, summaries",
                session_str,
            )
        except ServeError as exc:
            return error_response(op, exc.code, str(exc), session_str)
        except ReproError as exc:
            return error_response(
                op, "internal", f"{type(exc).__name__}: {exc}", session_str
            )

    def _op_open(self, message: dict) -> dict:
        session_id = message.get("session")
        spec = message.get("spec")
        if spec is None:
            spec = self.default_spec
        self.manager.open(session_id, spec)
        return ok_response("open", session_id, spec=spec)

    def _op_append(self, message: dict) -> dict:
        started = time.perf_counter()
        session_id = message.get("session")
        seq = message.get("seq")
        if seq is not None and (
            isinstance(seq, bool) or not isinstance(seq, int) or seq < 1
        ):
            raise ServeError(
                f"'seq' must be a positive integer, got {seq!r}",
                code="bad-request",
            )
        if "fixes_flat" in message:
            fixes = parse_flat_fixes(message["fixes_flat"])
        elif "fixes" in message:
            fixes = parse_fixes(message["fixes"])
        elif "fix" in message:
            fixes = [parse_fix(message["fix"])]
        else:
            raise ServeError(
                "append needs a 'fix' triple, a 'fixes' list or a "
                "'fixes_flat' array",
                code="bad-request",
            )
        try:
            with span("serve.append", fixes=len(fixes)):
                outcome = self.manager.append_batch(session_id, fixes, seq=seq)
        except ServeError as exc:
            # Mid-batch failure: fixes before the bad one are already in
            # the session; report what they decided so nothing the client
            # sees is ever silently dropped.
            session_str = session_id if isinstance(session_id, str) else None
            return error_response(
                "append",
                exc.code,
                str(exc),
                session_str,
                retained=render_fixes(exc.retained),
            )
        session_str = session_id if isinstance(session_id, str) else None
        if outcome.error is not None:
            response = error_response(
                "append",
                "out-of-order",
                str(outcome.error),
                session_str,
                seq=outcome.seq,
                retained=render_fixes(outcome.retained),
            )
        else:
            self._latency.observe((time.perf_counter() - started) * 1e3)
            response = ok_response(
                "append",
                session_str,
                seq=outcome.seq,
                retained=render_fixes(outcome.retained),
                n_retained=len(outcome.retained),
            )
        if outcome.evicted:
            # Budget compressors retract previously retained points; the
            # field is present only when something was evicted, so the
            # threshold-compressor wire form is unchanged.
            response["evicted"] = render_fixes(outcome.evicted)
            response["n_evicted"] = len(outcome.evicted)
        if outcome.duplicate:
            response["duplicate"] = True
        return response

    def _op_resume(self, message: dict) -> dict:
        """Where a session stands, for reconnecting clients.

        Reports the last acknowledged sequence number (so the client
        re-sends exactly the unacknowledged suffix), the session's spec
        and whether it was rebuilt from the WAL. An unknown session
        raises ``unknown-session`` — the client opens a fresh one.
        """
        session_id = message.get("session")
        session = self.manager.get(session_id)
        return ok_response(
            "resume",
            session.object_id,
            seq=session.last_seq,
            spec=session.spec,
            recovered=session.recovered,
            fixes_in=session.n_fixes_in,
            n_retained=session.n_retained,
            budget=session.budget,
        )

    def _op_close(self, message: dict) -> dict:
        session_id = message.get("session")
        record, tail = self.manager.close(session_id)
        stored = None
        if record is not None:
            stored = {
                "object_id": record.object_id,
                "n_raw_points": record.n_raw_points,
                "n_stored_points": record.n_stored_points,
                "stored_bytes": record.stored_bytes,
                "sync_error_bound_m": record.sync_error_bound_m,
            }
        return ok_response(
            "close", session_id, retained=render_fixes(tail), stored=stored
        )

    def _op_flush(self) -> dict:
        self.manager.persist()
        path = self.manager.store_path
        return ok_response(
            "flush",
            path=None if path is None else str(path),
            n_objects=len(self.manager.store),
        )

    # ------------------------------------------------------------------ #
    # Read path: QUERY + SUMMARIES
    # ------------------------------------------------------------------ #

    @staticmethod
    def _number(message: dict, field: str) -> float:
        """A required finite-number field, as a float."""
        value = message.get(field)
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            raise ServeError(
                f"'{field}' must be a finite number, got {value!r}",
                code="bad-request",
            )
        return float(value)

    @staticmethod
    def _parse_bbox(value: object) -> BBox:
        """A wire ``[min_x, min_y, max_x, max_y]`` array as a BBox."""
        if (
            not isinstance(value, list)
            or len(value) != 4
            or any(
                isinstance(part, bool) or not isinstance(part, (int, float))
                for part in value
            )
        ):
            raise ServeError(
                f"'bbox' must be [min_x, min_y, max_x, max_y] numbers, "
                f"got {value!r}",
                code="bad-request",
            )
        try:
            return BBox(*(float(part) for part in value))
        except ValueError as exc:
            raise ServeError(str(exc), code="bad-request") from None

    def _op_query(self, message: dict) -> dict:
        kind = message.get("query")
        if kind == "position":
            return self._query_position(message)
        if kind == "window":
            return self._query_window(message)
        if kind == "nearest":
            return self._query_nearest(message)
        raise ServeError(
            f"unknown query kind {kind!r}; valid kinds: position, window, "
            f"nearest",
            code="bad-request",
        )

    def _query_position(self, message: dict) -> dict:
        object_id = message.get("object")
        if not isinstance(object_id, str) or not object_id:
            raise ServeError(
                f"query position needs a non-empty string 'object', "
                f"got {object_id!r}",
                code="bad-request",
            )
        when = self._number(message, "t")
        try:
            answer = self.engine.position_at(object_id, when)
        except ObjectNotFoundError:
            raise ServeError(
                f"no stored object or covering live session {object_id!r}",
                code="not-found",
            ) from None
        except ValueError as exc:
            raise ServeError(str(exc), code="not-found") from None
        return ok_response(
            "query", query="position", source=answer.source, result=answer.to_wire()
        )

    def _query_window(self, message: dict) -> dict:
        t0 = self._number(message, "t0")
        t1 = self._number(message, "t1")
        if t1 < t0:
            raise ServeError(
                f"empty time window [{t0}, {t1}]", code="bad-request"
            )
        mode = message.get("mode", "stored")
        if mode not in ("stored", "possibly", "definitely"):
            raise ServeError(f"unknown query mode {mode!r}", code="bad-request")
        box = self._parse_bbox(message["bbox"]) if "bbox" in message else None
        objects = self.engine.window(t0, t1, box, mode)
        return ok_response("query", query="window", objects=objects, n=len(objects))

    def _query_nearest(self, message: dict) -> dict:
        x = self._number(message, "x")
        y = self._number(message, "y")
        when = self._number(message, "t")
        k = message.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ServeError(
                f"'k' must be a positive integer, got {k!r}", code="bad-request"
            )
        results = [answer.to_wire() for answer in self.engine.nearest(x, y, when, k=k)]
        return ok_response("query", query="nearest", results=results)

    def _op_summaries(self, message: dict) -> dict:
        object_id = message.get("object")
        if object_id is not None:
            if not isinstance(object_id, str) or not object_id:
                raise ServeError(
                    f"'object' must be a non-empty string, got {object_id!r}",
                    code="bad-request",
                )
            objects = {}
            if object_id in self.store:
                objects[object_id] = self.store.summary(object_id).to_wire()
            is_live = object_id in self.manager
            if not objects and not is_live:
                raise ServeError(
                    f"no stored object or live session {object_id!r}",
                    code="not-found",
                )
            return ok_response(
                "summaries",
                objects=objects,
                live_sessions=[object_id] if is_live else [],
            )
        return ok_response(
            "summaries",
            objects={
                key: self.store.summary(key).to_wire()
                for key in self.store.object_ids()
            },
            live_sessions=self.manager.live_session_ids,
            config=self.store.summary_config.to_wire(),
        )

    def stats(self) -> dict:
        """The ``stats`` verb's payload: the manager's fields plus the
        server's own state, its append latency and the registry export."""
        payload = self.manager.stats()
        payload.update(
            protocol_version=PROTOCOL_VERSION,
            shard=self.shard,
            draining=self._draining,
            recovery=self.recovery,
            uptime_s=(
                None
                if self._started_at is None
                else max(0.0, self._clock() - self._started_at)
            ),
            append_latency_ms=self._latency.to_dict(),
            metrics=self.metrics.to_dict(),
        )
        return payload
