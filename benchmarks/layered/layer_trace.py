"""Span recording for the layered benchmark's traced runs and layer probes.

The recorder wraps public entry points of each ``repro`` layer from the
outside (no file under ``src/`` changes) and keeps every span in memory.
A traced server writes them to one JSON file when it exits; a layer
probe in the benchmark's own process reads them directly and then
restores the originals with :meth:`SpanRecorder.uninstall`.

Each span is ``(id, parent, name, start, end, rid, note)``:
``start``/``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC,
so comparable across processes on one host), ``parent`` is the
enclosing span in the same task or thread (0 for none), ``rid`` is the
request id the client put in the message's ``rid`` field, shared by
every span of that request in every process it crossed, and ``note`` is
a count read where the work happened (``None`` for most spans; for
``query.engine.*`` the engine's cumulative decoded bytes and its prune
ratio after the call).

A served request's root span, named ``request.<op>``, runs from the
start of ``decode_line`` to the end of the ``encode_message`` that
writes its response; both are looked up through ``repro.serve.server``
at call time, so patching that module's names is enough. Context
variables carry the current span: each connection is processed by its
own asyncio task, so two requests interleaved across an ``await`` never
share a parent. ``os.fsync`` calls made off the main thread come from
the WAL's commit executor and are named ``os.fsync.wal``.

Use :func:`install_from_env` in a process that should record (the
``traced_serve.py`` launcher, or ``sitecustomize.py`` in fleet workers);
:func:`load_spans` and :func:`self_times` read the spans back.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Environment variable naming the directory span dumps are written to;
#: recording is off unless it is set.
TRACE_DIR_ENV = "LAYERED_TRACE_DIR"


def _engine_note(engine) -> tuple | None:
    """Decoded bytes so far and the last prune ratio of a ``QueryEngine``."""
    registry = engine.metrics
    if registry is None:
        return None
    return (
        registry.counter("query_decoded_bytes").value,
        registry.gauge("query_prune_ratio").value,
    )


class SpanRecorder:
    """Collects spans in memory for one process."""

    def __init__(self) -> None:
        #: Tuples of atomic values, which the garbage collector stops
        #: tracking, so a long run's spans do not slow its collections.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "layered_span", default=0
        )
        #: ``(root id, start, op, rid)`` of the request this task serves.
        self._request: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
            "layered_request", default=None
        )
        self._main = threading.main_thread()
        #: ``(owner, attribute, original)`` of every patched name.
        self._patched: list[tuple] = []

    def _rid(self) -> object:
        request = self._request.get()
        return None if request is None else request[3]

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording one span per call; ``note(first_arg)`` after it."""
        ids, current, spans = self._ids, self._current, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            token = current.set(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append((sid, current.get(), name, start, end, self._rid(),
                              note(args[0]) if note else None))

        return wrapper

    def wrap_async(self, name: str, fn):
        """Coroutine function ``fn`` recording one span per await."""
        ids, current, spans = self._ids, self._current, self.spans

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(ids)
            token = current.set(sid)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append((sid, current.get(), name, start, end, self._rid(), None))

        return wrapper

    def wrap_decode(self, fn):
        """``decode_line`` opening a request root span."""
        ids, current, request, spans = (
            self._ids, self._current, self._request, self.spans
        )

        @functools.wraps(fn)
        def decode_line(line):
            start = time.perf_counter()
            root, sid = next(ids), next(ids)
            current.set(sid)
            try:
                message = fn(line)
            except BaseException:
                end = time.perf_counter()
                current.set(root)
                request.set((root, start, "invalid", None))
                spans.append((sid, root, "protocol.decode", start, end, None, None))
                raise
            end = time.perf_counter()
            current.set(root)
            rid = message.get("rid")
            request.set((root, start, str(message.get("op")), rid))
            spans.append((sid, root, "protocol.decode", start, end, rid, None))
            return message

        return decode_line

    def wrap_encode(self, fn):
        """``encode_message`` closing the current request root span."""
        ids, current, request, spans = (
            self._ids, self._current, self._request, self.spans
        )

        @functools.wraps(fn)
        def encode_message(message):
            sid = next(ids)
            parent = current.get()
            current.set(sid)
            start = time.perf_counter()
            try:
                return fn(message)
            finally:
                end = time.perf_counter()
                current.set(0)
                open_request = request.get()
                request.set(None)
                rid = None if open_request is None else open_request[3]
                spans.append((sid, parent, "protocol.encode", start, end, rid, None))
                if open_request is not None:
                    root, began, op, _ = open_request
                    spans.append((root, 0, f"request.{op}", began, end, rid, None))

        return encode_message

    def wrap_fsync(self, fn):
        """``os.fsync``, naming calls off the main thread as the WAL's."""
        on_main = self.wrap("os.fsync", fn)
        off_main = self.wrap("os.fsync.wal", fn)
        main = self._main

        @functools.wraps(fn)
        def fsync(fd):
            if threading.current_thread() is main:
                return on_main(fd)
            return off_main(fd)

        return fsync

    def _patch(self, owner, attribute: str, value) -> None:
        original = vars(owner)[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every name this recorder patched."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def install_serve(self) -> None:
        """Wrap the serving layers' public entry points in this process."""
        import repro.serve.server as server
        from repro.query.engine import QueryEngine
        from repro.serve.session import Session, SessionManager
        from repro.serve.wal import WalWriter
        from repro.storage.store import TrajectoryStore

        self._patch(server, "decode_line", self.wrap_decode(server.decode_line))
        self._patch(server, "encode_message", self.wrap_encode(server.encode_message))
        self._patch(server, "parse_flat_fixes",
                    self.wrap("protocol.parse_flat", server.parse_flat_fixes))
        for method in ("open", "append_batch", "close"):
            self._patch(SessionManager, method,
                        self.wrap(f"session.{method}", getattr(SessionManager, method)))
        # The live-session overlay of window and nearest queries spends
        # its time building session snapshots and testing them.
        self._patch(Session, "snapshot", self.wrap("session.snapshot", Session.snapshot))
        self._patch(server, "window_hit", self.wrap("query.window_hit", server.window_hit))
        self._patch(WalWriter, "commit", self.wrap_async("wal.commit", WalWriter.commit))
        self._patch(TrajectoryStore, "insert",
                    self.wrap("store.insert", TrajectoryStore.insert))
        self._patch(TrajectoryStore, "save", self.wrap("store.save", TrajectoryStore.save))
        self._patch(TrajectoryStore, "load",
                    classmethod(self.wrap("store.load", TrajectoryStore.load.__func__)))
        for method, verb in (
            ("position_at", "position"),
            ("window", "window"),
            ("nearest", "nearest"),
        ):
            self._patch(QueryEngine, method, self.wrap(
                f"query.engine.{verb}", getattr(QueryEngine, method), _engine_note))
        self._patch(os, "fsync", self.wrap_fsync(os.fsync))

    def install_batch(self) -> None:
        """Wrap the batch path: engine runs, compressors, error evaluation."""
        import repro.pipeline.engine as engine
        from repro.core.base import Compressor

        self._patch(engine.BatchEngine, "run",
                    self.wrap("pipeline.run", engine.BatchEngine.run))
        compress = Compressor.compress
        by_name: dict = {}

        @functools.wraps(compress)
        def traced_compress(compressor, traj):
            name = compressor.name
            wrapped = by_name.get(name)
            if wrapped is None:
                wrapped = by_name[name] = self.wrap(f"core.compress.{name}", compress)
            return wrapped(compressor, traj)

        self._patch(Compressor, "compress", traced_compress)
        for function in ("mean_synchronized_error", "max_synchronized_error"):
            self._patch(engine, function,
                        self.wrap("error.evaluate", getattr(engine, function)))

    def dump(self, path: Path) -> None:
        """Write every recorded span (and who recorded them) to ``path``."""
        payload = {"pid": os.getpid(), "argv": sys.argv, "spans": self.spans}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


def install_from_env() -> SpanRecorder | None:
    """Record the serving layers when ``LAYERED_TRACE_DIR`` is set.

    The spans are dumped into that directory when the process exits.
    """
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    recorder = SpanRecorder()
    recorder.install_serve()
    target = Path(directory) / f"spans-{os.getpid()}.json"
    atexit.register(recorder.dump, target)
    return recorder


def load_spans(directory: Path) -> list[dict]:
    """Every dump in ``directory`` as ``{"pid", "argv", "spans"}``."""
    return [
        json.loads(path.read_text()) for path in sorted(directory.glob("spans-*.json"))
    ]


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's self time: its duration minus what its children cover.

    Children of one parent do not overlap in time (they run in the same
    task or thread, one after another), so their durations are summed.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span[1]:
            child_time[span[1]] = child_time.get(span[1], 0.0) + (span[4] - span[3])
    return {span[0]: (span[4] - span[3]) - child_time.get(span[0], 0.0) for span in spans}
