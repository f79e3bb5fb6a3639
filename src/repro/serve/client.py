"""Asyncio clients for the trajectory-ingestion service.

:class:`ServeClient` is a thin, typed wrapper over the NDJSON wire
protocol: requests go out one line at a time, each awaited response is
checked for ``ok`` and error responses are raised as
:class:`~repro.exceptions.ServeError` carrying the server's
machine-readable ``code`` (and, for mid-batch append failures, the
``retained`` prefix the server reported). Retained fixes come back as
:class:`~repro.types.Fix` values in decision order.

:class:`DurableServeClient` wraps the same verbs in a reconnect loop:
when the connection drops or times out it redials with exponential
backoff, ``resume``\\ s its sessions, and re-sends the in-flight request
under the same per-session sequence number — which the server
deduplicates, so a response lost to a crash is recovered instead of
re-applied. Point it at a WAL-enabled server and a tracker survives
server crashes with no data loss and no duplicates.

Usage::

    async with await ServeClient.connect("127.0.0.1", port) as client:
        await client.open("car-17", "opw-tr:epsilon=30")
        for fix in feed:
            retained = await client.append("car-17", [fix])
            ...
        summary = await client.close_session("car-17")
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Iterable, Sequence

from repro.exceptions import ServeError
from repro.serve.protocol import MAX_LINE_BYTES, decode_line, encode_message
from repro.types import Fix

__all__ = ["ServeClient", "DurableServeClient"]

#: Error codes that mean "the connection is unusable, redial": they say
#: nothing about whether the server applied the request, which is why
#: re-sends carry sequence numbers.
RETRYABLE_CODES = frozenset({"connection-closed", "timeout"})


def _parse_retained(value: object) -> list[Fix]:
    if not isinstance(value, list):
        return []
    return [Fix(*triple) for triple in value]


class ServeClient:
    """One client connection to a :class:`~repro.serve.server.TrajectoryServer`.

    The protocol is strictly request/response per connection, so one
    client instance must not be shared between concurrently running
    coroutines; open one connection per concurrent session instead.

    Args:
        timeout: per-request deadline in seconds (``None`` = wait
            forever). A timed-out request raises :class:`ServeError`
            with code ``timeout`` and marks the connection broken —
            the response may still arrive later, and consuming it as
            the answer to the *next* request would desynchronise the
            stream.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout: float | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.timeout = timeout
        self._broken = False

    @classmethod
    async def connect(
        cls, host: str, port: int, *, timeout: float | None = None
    ) -> "ServeClient":
        """Open a TCP connection to a running server.

        ``timeout`` bounds the connect itself and becomes the
        per-request deadline of the returned client.

        Raises:
            ServeError: code ``timeout`` when the connect exceeds it.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=MAX_LINE_BYTES),
                timeout,
            )
        except asyncio.TimeoutError:
            raise ServeError(
                f"connect to {host}:{port} timed out after {timeout}s",
                code="timeout",
            ) from None
        return cls(reader, writer, timeout=timeout)

    @property
    def broken(self) -> bool:
        """True once the connection can no longer be trusted."""
        return self._broken

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close the connection (open sessions stay live server-side)."""
        self._broken = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def request(self, message: dict) -> dict:
        """Send one raw protocol message and await its response.

        Raises:
            ServeError: an ``ok: false`` response (with the server's
                ``code`` and any reported ``retained`` prefix), a
                dropped connection (code ``connection-closed``), or a
                blown per-request deadline (code ``timeout``).
        """
        try:
            response = await asyncio.wait_for(
                self._round_trip(message), self.timeout
            )
        except asyncio.TimeoutError:
            self._broken = True
            raise ServeError(
                f"no response within {self.timeout}s", code="timeout"
            ) from None
        except (ConnectionResetError, BrokenPipeError):
            self._broken = True
            raise ServeError(
                "connection dropped mid-request", code="connection-closed"
            ) from None
        if not response.get("ok"):
            raise ServeError(
                str(response.get("error", "unspecified server error")),
                code=str(response.get("code", "internal")),
                retained=_parse_retained(response.get("retained")),
            )
        return response

    async def _round_trip(self, message: dict) -> dict:
        self._writer.write(encode_message(message))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            self._broken = True
            raise ServeError(
                "server closed the connection", code="connection-closed"
            )
        return decode_line(line)

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #

    async def open(self, session: str, spec: str) -> dict:
        """Open a session compressing under a spec string."""
        return await self.request({"op": "open", "session": session, "spec": spec})

    async def append(
        self,
        session: str,
        fixes: Iterable[Fix | Sequence[float]],
        *,
        seq: int | None = None,
    ) -> list[Fix]:
        """Append fixes; returns the fixes the compressor decided to retain.

        Fixes go out in the protocol's flat batch form (one
        ``fixes_flat`` array of ``t, x, y`` runs), the cheapest encoding
        on both ends of the wire. ``seq`` optionally pins the batch's
        per-session sequence number (see ``docs/SERVING.md``); without
        it the server auto-assigns the next one.
        """
        response = await self.append_response(session, fixes, seq=seq)
        return [Fix(*triple) for triple in response["retained"]]

    async def append_events(
        self,
        session: str,
        fixes: Iterable[Fix | Sequence[float]],
        *,
        seq: int | None = None,
    ) -> tuple[list[Fix], list[Fix]]:
        """Append fixes; returns ``(retained, evicted)``.

        ``evicted`` lists previously retained fixes a budget compressor
        (``squish:budget=...``, ``sttrace:budget=...``) retracted —
        push-time evictions plus any pending renegotiation evictions.
        Consumers tracking the net retained stream should remove them by
        timestamp, tolerating already-removed entries (a recovery replay
        may re-deliver an eviction). Threshold compressors never
        populate it.
        """
        response = await self.append_response(session, fixes, seq=seq)
        return (
            [Fix(*triple) for triple in response["retained"]],
            [Fix(*triple) for triple in response.get("evicted", [])],
        )

    async def append_response(
        self,
        session: str,
        fixes: Iterable[Fix | Sequence[float]],
        *,
        seq: int | None = None,
    ) -> dict:
        """:meth:`append`, returning the full response dict.

        The response carries ``seq`` (the batch's sequence number) and
        ``duplicate: true`` when the server had already applied it —
        what the reconnect logic needs.
        """
        flat = [float(value) for fix in fixes for value in fix]
        message: dict = {"op": "append", "session": session, "fixes_flat": flat}
        if seq is not None:
            message["seq"] = seq
        return await self.request(message)

    async def resume(self, session: str) -> dict:
        """Where a session stands server-side: its last acked ``seq``.

        Raises:
            ServeError: ``unknown-session`` when the server holds no
                such session (open a fresh one).
        """
        return await self.request({"op": "resume", "session": session})

    async def close_session(self, session: str) -> dict:
        """Close a session; returns ``{"retained": [...], "stored": ...}``.

        ``retained`` holds the final fixes (as :class:`Fix`) the close
        decided; ``stored`` is the store's catalog summary, or ``None``
        for a session that never appended a fix.
        """
        response = await self.request({"op": "close", "session": session})
        return {
            "retained": [Fix(*triple) for triple in response["retained"]],
            "stored": response.get("stored"),
        }

    async def flush(self) -> dict:
        """Ask the server to re-persist its store file now."""
        return await self.request({"op": "flush"})

    async def stats(self) -> dict:
        """The server's observability snapshot (see ``docs/SERVING.md``)."""
        response = await self.request({"op": "stats"})
        return response["stats"]

    async def query_position(self, object_id: str, t: float) -> dict:
        """Interpolated position of ``object_id`` at time ``t``.

        Returns the response's ``result`` dict (``object``/``t``/``x``/
        ``y``/``error_bound_m``); live sessions answer before stored
        records (``source`` on the full response says which).

        Raises:
            ServeError: ``not-found`` for an unknown object or a time
                outside its interval.
        """
        response = await self.request(
            {"op": "query", "query": "position", "object": object_id, "t": t}
        )
        return response["result"]

    async def query_window(
        self,
        t0: float,
        t1: float,
        bbox: Sequence[float] | None = None,
        mode: str = "stored",
    ) -> list[str]:
        """Sorted object ids matching a time window (and optional box)."""
        message: dict = {"op": "query", "query": "window", "t0": t0, "t1": t1}
        if bbox is not None:
            message["bbox"] = [float(part) for part in bbox]
        if mode != "stored":
            message["mode"] = mode
        response = await self.request(message)
        return list(response["objects"])

    async def query_nearest(
        self, x: float, y: float, t: float, k: int = 1
    ) -> list[dict]:
        """The ``k`` objects nearest ``(x, y)`` at time ``t``, ranked."""
        response = await self.request(
            {"op": "query", "query": "nearest", "x": x, "y": y, "t": t, "k": k}
        )
        return list(response["results"])

    async def summaries(self, object_id: str | None = None) -> dict:
        """Partition summaries (all objects, or one) + live session ids."""
        message: dict = {"op": "summaries"}
        if object_id is not None:
            message["object"] = object_id
        response = await self.request(message)
        return {
            "objects": response["objects"],
            "live_sessions": response.get("live_sessions", []),
            "config": response.get("config"),
        }


class DurableServeClient:
    """A reconnecting client that survives server crashes without data loss.

    Wraps every verb in a retry loop. When a request fails with a
    connection-level error (dropped socket, timeout) the client redials
    with exponential backoff, ``resume``\\ s each of its sessions, and
    re-sends the failed request unchanged. Appends always carry an
    explicit per-session sequence number, so a re-send of a batch the
    server already applied comes back as a deduplicated replay of the
    original acknowledgement — never a double-apply.

    Against a WAL-enabled server this is exactly the tracker-side half
    of crash safety: the server promises that everything it acked
    survives a crash, and this client promises to re-deliver everything
    that was never acked.

    Args:
        host, port: the server to dial (and re-dial).
        timeout: per-request and per-connect deadline (seconds).
        max_retries: connection-level failures tolerated per request
            before giving up and raising the last error.
        backoff_base_s: first reconnect delay; doubles per consecutive
            failure up to ``backoff_max_s``.
        sleep: awaitable sleep, injectable so tests run instantly.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 5.0,
        max_retries: int = 5,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self._sleep = sleep
        self._client: ServeClient | None = None
        #: Per-session reconnect state: spec + last acked sequence number.
        self._sessions: dict[str, dict] = {}
        #: Reconnects performed over this client's lifetime.
        self.reconnects = 0

    async def __aenter__(self) -> "DurableServeClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close the underlying connection (sessions stay live server-side)."""
        if self._client is not None:
            await self._client.aclose()
            self._client = None

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #

    async def _ensure_connected(self) -> ServeClient:
        """The live connection, redialing (with backoff) if needed.

        A successful redial ``resume``\\ s every tracked session so the
        local sequence counters re-align with what the server actually
        acknowledged — a crashed server may be behind this client's
        optimistic view, never ahead of it.
        """
        if self._client is not None and not self._client.broken:
            return self._client
        delay = self.backoff_base_s
        last_error: ServeError | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                await self._sleep(min(delay, self.backoff_max_s))
                delay *= 2
            try:
                client = await ServeClient.connect(
                    self.host, self.port, timeout=self.timeout
                )
            except (ServeError, OSError) as exc:
                last_error = (
                    exc
                    if isinstance(exc, ServeError)
                    else ServeError(str(exc), code="connection-closed")
                )
                continue
            if self._client is not None:
                self.reconnects += 1
            self._client = client
            await self._resync(client)
            return client
        raise ServeError(
            f"could not reach {self.host}:{self.port} after "
            f"{self.max_retries + 1} attempts: {last_error}",
            code=last_error.code if last_error is not None else "connection-closed",
        )

    async def _resync(self, client: ServeClient) -> None:
        """Re-align sequence counters with the server after a redial."""
        for session_id, state in self._sessions.items():
            try:
                response = await client.resume(session_id)
            except ServeError as exc:
                if exc.code == "unknown-session":
                    # The server holds nothing for this session (e.g. it
                    # runs without a WAL, or the session was flushed).
                    # Reopen so subsequent appends have a live window;
                    # sequence numbering restarts with the session.
                    await client.open(session_id, state["spec"])
                    state["seq"] = 0
                    continue
                raise
            state["seq"] = int(response.get("seq", state["seq"]))

    async def _with_retry(self, send: Callable[[ServeClient], Awaitable[dict]]) -> dict:
        """Run one request, redialing on connection-level failures.

        Backs off between attempts even when the redial itself succeeds:
        behind a sharded router the TCP dial always lands (the router is
        alive) while the owning worker is still mid-respawn, so without
        this pause every retry would burn in milliseconds and give up
        before the shard recovers.
        """
        last_error: ServeError | None = None
        delay = self.backoff_base_s
        for attempt in range(self.max_retries + 1):
            if attempt:
                await self._sleep(min(delay, self.backoff_max_s))
                delay *= 2
            try:
                client = await self._ensure_connected()
                return await send(client)
            except ServeError as exc:
                if exc.code not in RETRYABLE_CODES:
                    raise
                last_error = exc
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #

    async def open(self, session: str, spec: str) -> dict:
        """Open (or re-adopt) a session compressing under ``spec``.

        A ``duplicate-session`` response is tolerated and resumed: it
        means an earlier open was acknowledged but the ack was lost, or
        the server recovered the session from its WAL.
        """
        self._sessions[session] = {"spec": spec, "seq": 0}
        try:
            return await self._with_retry(lambda c: c.open(session, spec))
        except ServeError as exc:
            if exc.code != "duplicate-session":
                self._sessions.pop(session, None)
                raise
            response = await self._with_retry(lambda c: c.resume(session))
            self._sessions[session]["seq"] = int(response.get("seq", 0))
            return response

    async def append(
        self, session: str, fixes: Iterable[Fix | Sequence[float]]
    ) -> list[Fix]:
        """Append fixes under the next sequence number; crash-safe.

        The batch is materialized once and re-sent verbatim under the
        same ``seq`` until some connection delivers a response — which
        the server deduplicates if a lost ack means it already applied
        the batch.
        """
        state = self._session_state(session)
        seq = state["seq"] + 1
        batch = [Fix(*map(float, fix)) for fix in fixes]
        response = await self._with_retry(
            lambda c: c.append_response(session, batch, seq=seq)
        )
        state["seq"] = seq
        return [Fix(*triple) for triple in response["retained"]]

    async def append_events(
        self, session: str, fixes: Iterable[Fix | Sequence[float]]
    ) -> tuple[list[Fix], list[Fix]]:
        """Crash-safe :meth:`append`, returning ``(retained, evicted)``.

        See :meth:`ServeClient.append_events` for the eviction contract;
        apply removals idempotently — a deduplicated replay after a
        reconnect re-delivers the original batch's evictions.
        """
        state = self._session_state(session)
        seq = state["seq"] + 1
        batch = [Fix(*map(float, fix)) for fix in fixes]
        response = await self._with_retry(
            lambda c: c.append_response(session, batch, seq=seq)
        )
        state["seq"] = seq
        return (
            [Fix(*triple) for triple in response["retained"]],
            [Fix(*triple) for triple in response.get("evicted", [])],
        )

    async def close_session(self, session: str) -> dict:
        """Close a session, tolerating an ack lost to a reconnect.

        If a retry finds the session already gone (``unknown-session``
        after at least one delivery attempt) *and* the server reports a
        healthy WAL, the earlier close was applied — on a durable server
        sessions only vanish by being closed or evicted-and-flushed, so
        the data is stored either way — and the lost response is
        reported as an empty tail with ``ack_lost: True``. Against a
        non-durable server the same symptom can mean the session died
        with a crash-restart, so the ambiguity is surfaced by re-raising
        instead of reporting a clean close.
        """
        self._session_state(session)
        attempts = 0

        async def send(client: ServeClient) -> dict:
            nonlocal attempts
            attempts += 1
            return await client.request({"op": "close", "session": session})

        try:
            response = await self._with_retry(send)
        except ServeError as exc:
            if (
                exc.code == "unknown-session"
                and attempts > 1
                and await self._server_is_durable()
            ):
                self._sessions.pop(session, None)
                return {"retained": [], "stored": None, "ack_lost": True}
            raise
        self._sessions.pop(session, None)
        return {
            "retained": [Fix(*triple) for triple in response["retained"]],
            "stored": response.get("stored"),
            "ack_lost": False,
        }

    async def _server_is_durable(self) -> bool:
        """Whether the server reports a healthy (non-failed) WAL.

        The lost-ack heuristics are only sound when acknowledged state
        survives server restarts; a server with no WAL — or a poisoned
        one, which discards dirty sessions — gives no such promise.
        """
        try:
            response = await self._with_retry(
                lambda c: c.request({"op": "stats"})
            )
        except ServeError:
            return False
        stats = response.get("stats")
        wal = stats.get("wal") if isinstance(stats, dict) else None
        return isinstance(wal, dict) and not wal.get("failed")

    async def flush(self) -> dict:
        """Ask the server to re-persist its store file now."""
        return await self._with_retry(lambda c: c.flush())

    async def stats(self) -> dict:
        """The server's observability snapshot."""
        response = await self._with_retry(
            lambda c: c.request({"op": "stats"})
        )
        return response["stats"]

    async def query_position(self, object_id: str, t: float) -> dict:
        """Reconnect-safe :meth:`ServeClient.query_position` (read-only)."""
        return await self._with_retry(lambda c: c.query_position(object_id, t))

    async def query_window(
        self,
        t0: float,
        t1: float,
        bbox: Sequence[float] | None = None,
        mode: str = "stored",
    ) -> list[str]:
        """Reconnect-safe :meth:`ServeClient.query_window` (read-only)."""
        return await self._with_retry(
            lambda c: c.query_window(t0, t1, bbox, mode)
        )

    async def query_nearest(
        self, x: float, y: float, t: float, k: int = 1
    ) -> list[dict]:
        """Reconnect-safe :meth:`ServeClient.query_nearest` (read-only)."""
        return await self._with_retry(lambda c: c.query_nearest(x, y, t, k))

    async def summaries(self, object_id: str | None = None) -> dict:
        """Reconnect-safe :meth:`ServeClient.summaries` (read-only)."""
        return await self._with_retry(lambda c: c.summaries(object_id))

    def _session_state(self, session: str) -> dict:
        state = self._sessions.get(session)
        if state is None:
            raise ServeError(
                f"session {session!r} was not opened by this client",
                code="unknown-session",
            )
        return state
