"""The consistent-hash router in front of a sharded worker fleet.

One thin asyncio process that owns no session state at all: every
``open``/``append``/``resume``/``close`` is forwarded — as the original
wire bytes — to the worker whose hash range owns the session id, and
the worker's response bytes are relayed back verbatim. Decoding happens
exactly once per request (to read the op and session id for routing);
the seq/dedup/resume semantics of protocol v2 therefore pass through
the router untouched, because the router never rewrites them.

Fleet-wide verbs fan out instead: ``flush`` asks every worker to
persist its partition, ``stats`` merges every worker's payload into one
view (summed lifecycle counters, per-shard detail under ``shards``, the
per-shard-labelled registry of :func:`repro.obs.merge_shard_metrics`,
and a fleet ``wal.failed`` flag so :class:`DurableServeClient`'s
lost-ack heuristic keeps working through the router).

Failure model, chosen to *reuse* the PR-7 client machinery rather than
duplicate it: when a worker dies mid-request, the router closes the
client's connection instead of synthesizing an error. A
:class:`~repro.serve.client.DurableServeClient` sees exactly what it
would see talking to a crashed single server — redials with backoff,
``resume``\\ s (the router routes that to the respawned worker, *after*
its WAL replay, because :meth:`WorkerPool.acquire` only returns ready
workers), and re-sends under the same seq, which the worker dedups.

Load shedding is per shard, not global: the router keeps an inflight
gauge per worker (``shard_inflight.<name>``) and refuses requests for a
drowning shard with code ``rejected`` while its neighbours keep
serving — one hot object cannot take down the fleet.
"""

from __future__ import annotations

import asyncio
import contextlib
from pathlib import Path

from repro.exceptions import ServeError
from repro.obs import Registry, merge_shard_metrics
from repro.serve.pool import WorkerHandle, WorkerPool
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    stats_fields,
)

__all__ = ["ServeRouter", "merge_partition_stores"]

#: Ops routed by session id; everything else fans out or is local.
_SESSION_OPS = frozenset({"open", "append", "resume", "close"})


def merge_partition_stores(
    pool: WorkerPool,
    merged_path: "Path | str",
    *,
    durable: bool = True,
    replace: bool = False,
) -> dict:
    """Merge every worker's partition store file into one store file.

    The drain endgame: workers persist disjoint partitions (the ring
    guarantees an object id lives on exactly one shard), so the merge
    is a plain union — a duplicate id across partitions means the ring
    was violated and is refused loudly unless ``replace`` is set.

    Returns:
        ``{"path", "n_objects", "partitions": {name: n}}``.
    """
    # Imported at drain, not at module top, so that a serving router
    # never loads the store, the codec or numpy.
    from repro.storage.store import TrajectoryStore

    merged = TrajectoryStore()
    partitions: dict[str, int] = {}
    for handle in pool.handles:
        if handle.store_path is None or not handle.store_path.exists():
            partitions[handle.name] = 0
            continue
        partition = TrajectoryStore.load(handle.store_path)
        partitions[handle.name] = len(partition)
        if not replace:
            clash = next((key for key in partition.object_ids() if key in merged), None)
            if clash is not None:
                raise ServeError(
                    f"object {clash!r} appears in more than one shard "
                    f"partition (ring violation)",
                    code="storage",
                )
        # The partition's columns move as they are: its load checked them.
        merged.merge_from(partition, replace=replace)
    merged.save(merged_path, durable=durable)
    return {
        "path": str(merged_path),
        "n_objects": len(merged),
        "partitions": partitions,
    }


class _Upstream:
    """One proxied connection from a client connection to one worker."""

    __slots__ = ("reader", "writer", "pid")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, pid: int
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.pid = pid


class ServeRouter:
    """Accept client connections and proxy them onto the worker fleet.

    Args:
        pool: the (already constructed, not yet started) worker pool.
        host, port: the router's own bind address (``port=0`` = pick).
        shed_inflight: per-shard inflight ceiling; requests for a shard
            at the ceiling are refused with code ``rejected``. ``0``
            disables shedding.
        acquire_timeout_s: how long one request may wait for a dead
            worker's respawn before giving up with ``unavailable``.
        metrics: the router's own registry (separate from the workers').
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        shed_inflight: int = 256,
        acquire_timeout_s: float = 15.0,
        metrics: "Registry | None" = None,
    ) -> None:
        self.pool = pool
        self.host = host
        self.port = int(port)
        self.shed_inflight = int(shed_inflight)
        self.acquire_timeout_s = float(acquire_timeout_s)
        self.metrics = metrics if metrics is not None else Registry()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._draining = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "ServeRouter":
        """Start the worker fleet, then bind the router's socket."""
        if self._server is not None:
            raise ServeError("router already started", code="internal")
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Block accepting connections until cancelled (requires start())."""
        if self._server is None:
            raise ServeError("router not started", code="internal")
        await self._server.serve_forever()

    async def run(self) -> None:
        """Start and serve until cancelled; stops the fleet on the way out."""
        await self.start()
        try:
            await self.serve_forever()
        finally:
            await self.stop()

    async def drain(self) -> dict:
        """Graceful fleet shutdown — the router's SIGTERM path.

        Stop accepting, drop live client connections (drain means the
        fleet is going away; durable clients will find nobody to redial
        and surface that honestly), SIGTERM every worker — each flushes
        its sessions and persists its partition, PR-7 semantics — and
        finally merge the partition files into the pool's store file.

        Returns:
            ``{"workers": {...exit codes...}, "merged": {...} | None}``.
        """
        self._draining = True
        await self._close_frontend()
        result = await self.pool.drain()
        merged = None
        if self.pool.store_path is not None:
            merged = await asyncio.to_thread(
                merge_partition_stores,
                self.pool,
                self.pool.store_path,
                replace=self.pool.replace,
            )
        return {"workers": result["exit_codes"], "merged": merged}

    async def stop(self) -> None:
        """Hard shutdown: kill the fleet without flushing (WALs survive)."""
        await self._close_frontend()
        await self.pool.stop()

    async def _close_frontend(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()

    # ------------------------------------------------------------------ #
    # Connection proxying
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self.metrics.counter("connections_opened").inc()
        self.metrics.gauge("connections_live").inc()
        upstreams: dict[str, _Upstream] = {}
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._reply(
                        writer,
                        error_response(
                            None,
                            "bad-request",
                            f"protocol line exceeds {MAX_LINE_BYTES} bytes; "
                            f"closing connection",
                        ),
                    )
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                if not await self._dispatch(line, writer, upstreams):
                    break
        except asyncio.CancelledError:
            pass  # router shutdown; fall through to teardown
        finally:
            self._connections.discard(task)
            for upstream in upstreams.values():
                upstream.writer.close()
            writer.close()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await writer.wait_closed()
            self.metrics.counter("connections_closed").inc()
            self.metrics.gauge("connections_live").dec()

    async def _dispatch(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        upstreams: dict[str, _Upstream],
    ) -> bool:
        """Route one request line; False = close this client connection."""
        try:
            message = decode_line(line)
        except ServeError as exc:
            return await self._reply(
                writer, error_response(None, exc.code, str(exc))
            )
        op = message.get("op")
        if op in _SESSION_OPS:
            return await self._proxy_keyed_op(
                line, message, writer, upstreams, "session"
            )
        if op == "query":
            return await self._route_query(line, message, writer, upstreams)
        if op == "summaries":
            if message.get("object") is not None:
                # One object lives on exactly one shard: route like a
                # session op, keyed by the object id.
                return await self._proxy_keyed_op(
                    line, message, writer, upstreams, "object"
                )
            return await self._reply(writer, await self._fan_out_summaries())
        if op == "flush":
            return await self._reply(writer, await self._fan_out_flush())
        if op == "stats":
            return await self._reply(writer, await self._fan_out_stats())
        return await self._reply(
            writer,
            error_response(
                op if isinstance(op, str) else None,
                "bad-request",
                f"unknown op {op!r}; valid ops: open, append, resume, "
                f"close, flush, stats, query, summaries",
                message.get("session")
                if isinstance(message.get("session"), str)
                else None,
            ),
        )

    async def _route_query(
        self,
        line: bytes,
        message: dict,
        writer: asyncio.StreamWriter,
        upstreams: dict[str, _Upstream],
    ) -> bool:
        """Route one ``query`` request: by ring when the query names one
        object, scatter-gather across the fleet otherwise."""
        kind = message.get("query")
        if kind == "position":
            return await self._proxy_keyed_op(
                line, message, writer, upstreams, "object"
            )
        if kind == "window":
            return await self._reply(writer, await self._fan_out_window(message))
        if kind == "nearest":
            return await self._reply(writer, await self._fan_out_nearest(message))
        return await self._reply(
            writer,
            error_response(
                "query",
                "bad-request",
                f"unknown query kind {kind!r}; valid kinds: position, "
                f"window, nearest",
            ),
        )

    async def _proxy_keyed_op(
        self,
        line: bytes,
        message: dict,
        writer: asyncio.StreamWriter,
        upstreams: dict[str, _Upstream],
        key_field: str,
    ) -> bool:
        """Proxy one request to the shard owning ``message[key_field]``.

        Session ops key on ``session``; single-object read ops key on
        ``object`` — the ring assigns both the same way, so a query for
        an object always lands on the shard ingesting it.
        """
        op = str(message.get("op"))
        session = message.get(key_field)
        if not isinstance(session, str) or not session:
            return await self._reply(
                writer,
                error_response(
                    op,
                    "bad-request",
                    f"{op} needs a non-empty string {key_field} id, "
                    f"got {session!r}",
                ),
            )
        if self._draining:
            return await self._reply(
                writer,
                error_response(op, "rejected", "router is draining", session),
            )
        name = self.pool.ring.node_for(session)
        inflight = self.metrics.gauge(f"shard_inflight.{name}")
        if self.shed_inflight and inflight.value >= self.shed_inflight:
            self.metrics.counter("requests_shed").inc()
            self.metrics.counter(f"requests_shed.{name}").inc()
            return await self._reply(
                writer,
                error_response(
                    op,
                    "rejected",
                    f"shard {name} is overloaded "
                    f"({self.shed_inflight} requests in flight); retry later",
                    session,
                ),
            )
        try:
            handle = await self.pool.acquire(
                name, timeout_s=self.acquire_timeout_s
            )
        except ServeError as exc:
            return await self._reply(
                writer, error_response(op, exc.code, str(exc), session)
            )
        inflight.inc()
        try:
            response_line = await self._round_trip(handle, line, upstreams)
        except (ConnectionError, EOFError, OSError):
            # The worker died under this request: whether it applied the
            # batch is unknowable from here. Hang up on the client — the
            # durable client redials, resumes (routed to the *recovered*
            # respawn) and re-sends under the same seq, which the worker
            # dedups. Synthesizing an error here would instead force
            # every client to learn router-specific failure semantics.
            process = handle.process
            if process is not None and process.returncode is not None:
                # Observably dead but the pool monitor hasn't reaped it
                # yet: close the admission window now so the client's
                # very next retry parks in acquire() until the respawn
                # finishes, instead of dialing a dead port.
                handle.ready.clear()
            self.metrics.counter("upstream_failures").inc()
            self.metrics.counter(f"upstream_failures.{name}").inc()
            return False
        finally:
            inflight.dec()
        self.metrics.counter("requests_proxied").inc()
        try:
            writer.write(response_line)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return False
        return True

    async def _round_trip(
        self, handle: WorkerHandle, line: bytes, upstreams: dict[str, _Upstream]
    ) -> bytes:
        """Forward raw request bytes to a worker; return raw response bytes."""
        upstream = upstreams.get(handle.name)
        process = handle.process
        pid = process.pid if process is not None else -1
        if upstream is not None and upstream.pid != pid:
            # The worker was respawned since this connection last talked
            # to it; the cached socket points at a dead process.
            upstream.writer.close()
            upstream = None
            upstreams.pop(handle.name, None)
        if upstream is None:
            assert handle.port is not None
            reader, writer = await asyncio.open_connection(
                self.pool.host, handle.port, limit=MAX_LINE_BYTES
            )
            upstream = _Upstream(reader, writer, pid)
            upstreams[handle.name] = upstream
        upstream.writer.write(line)
        await upstream.writer.drain()
        response = await upstream.reader.readline()
        if not response:
            raise EOFError(f"worker {handle.name} closed the connection")
        return response

    # ------------------------------------------------------------------ #
    # Fan-out verbs
    # ------------------------------------------------------------------ #

    async def _worker_request(self, handle: WorkerHandle, message: dict) -> dict:
        """One short-lived request/response against one worker."""
        await self.pool.acquire(handle.name, timeout_s=self.acquire_timeout_s)
        assert handle.port is not None
        reader, writer = await asyncio.open_connection(
            self.pool.host, handle.port, limit=MAX_LINE_BYTES
        )
        try:
            writer.write(encode_message(message))
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise EOFError(f"worker {handle.name} closed the connection")
            return decode_line(line)
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _fan_out(self, message: dict) -> dict:
        """Send one message to every worker; ``{name: response | error}``."""
        results = await asyncio.gather(
            *(self._worker_request(handle, message) for handle in self.pool.handles),
            return_exceptions=True,
        )
        out: dict = {}
        for handle, result in zip(self.pool.handles, results):
            if isinstance(result, BaseException):
                out[handle.name] = error_response(
                    message.get("op"),
                    "unavailable",
                    f"{type(result).__name__}: {result}",
                )
            else:
                out[handle.name] = result
        return out

    async def _fan_out_flush(self) -> dict:
        responses = await self._fan_out({"op": "flush"})
        failed = {
            name: response
            for name, response in responses.items()
            if not response.get("ok")
        }
        if failed:
            name, response = next(iter(failed.items()))
            return error_response(
                "flush",
                str(response.get("code", "unavailable")),
                f"shard {name}: {response.get('error', 'flush failed')}",
                shards=responses,
            )
        return ok_response(
            "flush",
            n_objects=sum(
                int(response.get("n_objects", 0)) for response in responses.values()
            ),
            shards={
                name: {"path": response.get("path"), "n_objects": response.get("n_objects")}
                for name, response in responses.items()
            },
        )

    def _first_shard_error(self, op: str, responses: dict) -> dict | None:
        """An error response naming the first failed shard, or ``None``.

        Scatter-gathered reads are all-or-nothing: a partial fleet answer
        would silently drop the failed shard's objects, so any shard
        error fails the whole query (the full per-shard picture rides
        under ``shards`` for diagnosis).
        """
        for name in sorted(responses):
            response = responses[name]
            if not response.get("ok"):
                return error_response(
                    op,
                    str(response.get("code", "unavailable")),
                    f"shard {name}: {response.get('error', f'{op} failed')}",
                    shards=responses,
                )
        return None

    async def _fan_out_window(self, message: dict) -> dict:
        """Scatter a window query; merge to one sorted, deduplicated id
        list (shards hold disjoint partitions, so the union is exact)."""
        responses = await self._fan_out(message)
        failed = self._first_shard_error("query", responses)
        if failed is not None:
            return failed
        objects = sorted(
            {
                key
                for response in responses.values()
                for key in response.get("objects", [])
            }
        )
        return ok_response("query", query="window", objects=objects, n=len(objects))

    async def _fan_out_nearest(self, message: dict) -> dict:
        """Scatter a nearest query; merge by (distance, id) and keep k.

        Each shard returns its local top k, and the true k nearest are
        all within some shard's local top k — so re-ranking the union by
        the same (distance, id) order a single server uses yields the
        fleet-wide answer deterministically.
        """
        responses = await self._fan_out(message)
        failed = self._first_shard_error("query", responses)
        if failed is not None:
            return failed
        k = message.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            # Unreachable in practice: every shard already rejected it.
            k = 1  # pragma: no cover - defensive
        merged: list[dict] = []
        seen: set[str] = set()
        for response in responses.values():
            merged.extend(response.get("results", []))
        merged.sort(
            key=lambda entry: (entry.get("distance_m", 0.0), entry.get("object", ""))
        )
        results = []
        for entry in merged:
            object_id = str(entry.get("object", ""))
            if object_id in seen:
                continue  # ring violation or mid-rebalance duplicate
            seen.add(object_id)
            results.append(entry)
            if len(results) == k:
                break
        return ok_response("query", query="nearest", results=results)

    async def _fan_out_summaries(self) -> dict:
        """Scatter a fleet-wide summaries request; union the payloads."""
        responses = await self._fan_out({"op": "summaries"})
        failed = self._first_shard_error("summaries", responses)
        if failed is not None:
            return failed
        objects: dict = {}
        live: set[str] = set()
        config = None
        for name in sorted(responses):
            response = responses[name]
            objects.update(response.get("objects", {}))
            live.update(response.get("live_sessions", []))
            if config is None:
                config = response.get("config")
        return ok_response(
            "summaries",
            objects=objects,
            live_sessions=sorted(live),
            config=config,
        )

    async def _fan_out_stats(self) -> dict:
        responses = await self._fan_out({"op": "stats"})
        shard_stats = {
            name: response.get("stats", {})
            for name, response in responses.items()
            if response.get("ok")
        }
        unavailable = sorted(
            name for name, response in responses.items() if not response.get("ok")
        )
        return ok_response("stats", stats=self.stats(shard_stats, unavailable))

    def stats(
        self,
        shard_stats: "dict[str, dict] | None" = None,
        unavailable: "list[str] | None" = None,
    ) -> dict:
        """The fleet-wide ``stats`` payload.

        Merges the workers' metric registries with per-shard labels
        (:func:`repro.obs.merge_shard_metrics`) and reads the top-level
        fields a single server reports from the merged registry
        (:func:`~repro.serve.protocol.stats_fields`), so each is the
        fleet-wide sum and existing dashboards and the durable client's
        heuristics keep reading them. ``live_sessions`` and
        ``stored_objects``, which no registry holds, are summed from the
        payloads; each worker's full payload stays under ``shards``.
        ``wal`` is the fleet view: ``failed`` iff *any* shard's WAL
        failed — the conservative answer for the client's lost-ack
        heuristic.
        """
        shard_stats = shard_stats or {}
        unavailable = unavailable or []
        wals = {
            name: payload["wal"]
            for name, payload in shard_stats.items()
            if isinstance(payload.get("wal"), dict)
        }
        # Built before the export below, which then lists what it reads.
        router = {
            "connections_live": self.metrics.gauge("connections_live").value,
            "connections_opened": self.metrics.counter("connections_opened").value,
            "requests_proxied": self.metrics.counter("requests_proxied").value,
            "requests_shed": self.metrics.counter("requests_shed").value,
            "upstream_failures": self.metrics.counter("upstream_failures").value,
            "shed_inflight": self.shed_inflight,
            "inflight": {
                handle.name: self.metrics.gauge(
                    f"shard_inflight.{handle.name}"
                ).value
                for handle in self.pool.handles
            },
        }
        metrics = merge_shard_metrics(
            {
                name: payload.get("metrics", {})
                for name, payload in shard_stats.items()
            },
            extra=self.metrics.to_dict(),
        )
        payload = {
            "protocol_version": PROTOCOL_VERSION,
            "role": "router",
            "draining": self._draining,
            **{
                field: sum(int(shard.get(field, 0)) for shard in shard_stats.values())
                for field in ("live_sessions", "stored_objects")
            },
            **stats_fields(metrics, fleet=True),
            "shards": shard_stats,
            "shards_unavailable": unavailable,
            "pool": self.pool.stats(),
            "router": router,
            "metrics": metrics,
        }
        if wals or self.pool.wal_base is not None:
            payload["wal"] = {
                "failed": any(bool(wal.get("failed")) for wal in wals.values())
                or bool(unavailable),
                "shards": wals,
            }
        return payload

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, response: dict) -> bool:
        try:
            writer.write(encode_message(response))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return False
        return True
