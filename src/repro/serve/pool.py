"""Shared-nothing worker pool for the sharded serve tier.

Two pieces, both deliberately small:

:class:`HashRing` is a classic consistent-hash ring (virtual nodes,
stable hash — BLAKE2, not Python's seeded ``hash()``) mapping object ids
onto worker names. Its load-bearing property, proven by the Hypothesis
suite in ``tests/serve/test_pool.py``: adding or removing one worker
only remaps the keys that land on that worker's arc — every other
object id keeps its shard, which is what lets a respawned worker
recover *its* WAL while the rest of the fleet keeps serving untouched.

:class:`WorkerPool` owns N ``repro serve`` **processes** — real
processes, not tasks, because the single-process server is CPU-bound on
one core and shared-nothing sharding is how the paper's O(1)-state
online algorithms scale horizontally. Each worker is a full PR-7
durable server with its *own* WAL directory (``<wal>/worker-<i>/``) and
its *own* store partition (``<store>.worker-<i>``): no shared mutable
state anywhere, so there is nothing to lock and nothing to corrupt
across shard boundaries. The pool spawns workers on ephemeral ports
(parsing the ``serving on host:port`` banner), watches each process,
and respawns a worker that dies — the respawned process replays its WAL
*before* binding its socket (that is just :meth:`TrajectoryServer.start`
semantics), so by the time :meth:`WorkerPool.acquire` re-admits the
hash range, every previously acknowledged batch is live again.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import signal
import sys
from bisect import bisect_right
from collections import deque
from pathlib import Path
from typing import Iterable

from repro.exceptions import ServeError
from repro.obs import Registry

__all__ = ["HashRing", "WorkerHandle", "WorkerPool", "partition_path"]

#: Virtual nodes per worker: enough that a 4-worker ring splits load
#: within a few percent of even, cheap enough that rebuilds don't matter.
DEFAULT_REPLICAS = 64


def _ring_hash(key: str) -> int:
    """A stable 64-bit position on the ring.

    BLAKE2b rather than ``hash()``: Python string hashing is salted per
    process (PYTHONHASHSEED), and the whole point of the ring is that the
    router, the bench harness and a test can all compute the same
    object-id → worker mapping independently.
    """
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent hashing of object ids onto named workers.

    Args:
        nodes: initial worker names.
        replicas: virtual nodes per worker (spreads each worker's arcs
            around the ring so load stays even).
    """

    def __init__(self, nodes: Iterable[str] = (), *, replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._nodes: set[str] = set()
        #: Sorted ``(position, node)`` pairs; the pair ordering breaks
        #: the (astronomically unlikely) position tie deterministically.
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> frozenset[str]:
        """The live worker names."""
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add a worker (idempotent is an error: duplicate names refuse)."""
        if not node:
            raise ValueError("worker name must be non-empty")
        if node in self._nodes:
            raise ValueError(f"worker {node!r} is already on the ring")
        self._nodes.add(node)
        for replica in range(self.replicas):
            self._points.append((_ring_hash(f"{node}#{replica}"), node))
        self._points.sort()

    def remove(self, node: str) -> None:
        """Remove a worker; its arcs fall to the next nodes clockwise."""
        if node not in self._nodes:
            raise ValueError(f"worker {node!r} is not on the ring")
        self._nodes.discard(node)
        self._points = [point for point in self._points if point[1] != node]

    def node_for(self, key: str) -> str:
        """The worker owning ``key`` — first node clockwise of its hash.

        Raises:
            ServeError: (code ``unavailable``) on an empty ring.
        """
        if not self._points:
            raise ServeError("no workers on the ring", code="unavailable")
        position = _ring_hash(key)
        index = bisect_right(self._points, (position, "￿"))
        if index == len(self._points):
            index = 0  # wrap: the arc past the last point belongs to the first
        return self._points[index][1]


def partition_path(store_path: "Path | str", name: str) -> Path:
    """Where worker ``name``'s store partition lives.

    ``fleet.rsto`` + ``worker-2`` → ``fleet.rsto.worker-2`` — next to
    the merged file a drain produces, so the per-shard partitions remain
    the source of truth across restarts and the merged file is the
    export artifact.
    """
    store_path = Path(store_path)
    return store_path.with_name(f"{store_path.name}.{name}")


class WorkerHandle:
    """One worker process slot (survives respawns; the process doesn't)."""

    __slots__ = (
        "name",
        "index",
        "wal_dir",
        "store_path",
        "port",
        "process",
        "ready",
        "restarts",
        "recent_output",
    )

    def __init__(
        self,
        name: str,
        index: int,
        wal_dir: "Path | None",
        store_path: "Path | None",
    ) -> None:
        self.name = name
        self.index = index
        self.wal_dir = wal_dir
        self.store_path = store_path
        self.port: int | None = None
        self.process: asyncio.subprocess.Process | None = None
        #: Set while the worker is serving; cleared the moment its
        #: process dies, so routing to this shard parks until respawn.
        self.ready = asyncio.Event()
        self.restarts = 0
        #: Tail of the worker's stdout/stderr, for crash diagnostics.
        self.recent_output: deque[str] = deque(maxlen=50)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.returncode is None


class WorkerPool:
    """Spawn, watch, respawn and drain the shard worker processes.

    Args:
        workers: process count (also the shard count).
        host: loopback address the workers bind (ephemeral ports).
        wal_dir: base WAL directory; worker ``i`` journals under
            ``<wal_dir>/worker-<i>/``. ``None`` runs workers without a
            WAL (a killed worker then loses its live sessions — exactly
            the single-process trade-off, per shard).
        store_path: the *merged* store file path; each worker persists
            its partition at :func:`partition_path`. ``None`` = no
            persistence.
        default_spec: forwarded as the workers' ``--algorithm``.
        max_sessions: admission limit **per worker**.
        idle_timeout_s / sweep_interval_s / queue_size / replace:
            forwarded verbatim to every worker.
        replicas: virtual nodes per worker on the ring.
        spawn_timeout_s: how long a worker may take to report its port
            (WAL replay happens inside this window).
        max_restarts: respawns allowed per worker before its shard is
            declared unavailable (a crash-looping binary should fail
            loudly, not flap forever).
        metrics: shared registry (worker deaths/respawns are counted
            here under ``worker_deaths`` / ``worker_respawns``).
    """

    def __init__(
        self,
        workers: int,
        *,
        host: str = "127.0.0.1",
        wal_dir: "Path | str | None" = None,
        store_path: "Path | str | None" = None,
        default_spec: "str | None" = None,
        max_sessions: int = 1024,
        degrade_budget_floor: "int | None" = None,
        degrade_budget_factor: float = 0.5,
        idle_timeout_s: float = 300.0,
        sweep_interval_s: float = 5.0,
        queue_size: int = 64,
        replace: bool = False,
        replicas: int = DEFAULT_REPLICAS,
        spawn_timeout_s: float = 30.0,
        max_restarts: int = 5,
        metrics: "Registry | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.host = host
        self.wal_base = None if wal_dir is None else Path(wal_dir)
        self.store_path = None if store_path is None else Path(store_path)
        self.default_spec = default_spec
        self.max_sessions = int(max_sessions)
        self.degrade_budget_floor = (
            None if degrade_budget_floor is None else int(degrade_budget_floor)
        )
        self.degrade_budget_factor = float(degrade_budget_factor)
        self.idle_timeout_s = float(idle_timeout_s)
        self.sweep_interval_s = float(sweep_interval_s)
        self.queue_size = int(queue_size)
        self.replace = replace
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.max_restarts = int(max_restarts)
        self.metrics = metrics if metrics is not None else Registry()
        self.handles: list[WorkerHandle] = []
        for index in range(workers):
            name = f"worker-{index}"
            self.handles.append(
                WorkerHandle(
                    name,
                    index,
                    None if self.wal_base is None else self.wal_base / name,
                    None
                    if self.store_path is None
                    else partition_path(self.store_path, name),
                )
            )
        self.ring = HashRing((h.name for h in self.handles), replicas=replicas)
        self._by_name = {handle.name: handle for handle in self.handles}
        self._monitors: list[asyncio.Task] = []
        self._pumps: dict[str, asyncio.Task] = {}
        self._stopping = False

    @property
    def worker_names(self) -> list[str]:
        return [handle.name for handle in self.handles]

    def handle_for(self, object_id: str) -> WorkerHandle:
        """The handle whose shard owns ``object_id`` (no readiness wait)."""
        return self._by_name[self.ring.node_for(object_id)]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "WorkerPool":
        """Spawn every worker (concurrently) and start the monitors.

        Raises:
            ServeError: a worker failed to start. Every worker this call
                started has been killed and reaped by then, so a failed
                start leaves no process behind.
        """
        self._stopping = False
        outcomes = await asyncio.gather(
            *(self._spawn(handle) for handle in self.handles),
            return_exceptions=True,
        )
        failures = [outcome for outcome in outcomes if outcome is not None]
        if failures:
            await self.stop()
            raise failures[0]
        for handle in self.handles:
            self._monitors.append(asyncio.create_task(self._monitor(handle)))
        return self

    async def _spawn(self, handle: WorkerHandle) -> None:
        """Start one worker process and wait for its ``serving on`` banner.

        The banner appears only after the worker's WAL replay completed
        and its socket is bound, so ``ready`` being set *is* the
        "recovered before re-admitted" guarantee.
        """
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", "0",
            "--shard", handle.name,
            "--max-sessions", str(self.max_sessions),
            "--idle-timeout", str(self.idle_timeout_s),
            "--sweep-interval", str(self.sweep_interval_s),
            "--queue-size", str(self.queue_size),
        ]
        if handle.store_path is not None:
            command += ["--store", str(handle.store_path)]
        if handle.wal_dir is not None:
            handle.wal_dir.mkdir(parents=True, exist_ok=True)
            command += ["--wal", str(handle.wal_dir)]
        if self.default_spec is not None:
            command += ["--algorithm", self.default_spec]
        if self.degrade_budget_floor is not None:
            command += [
                "--degrade-floor", str(self.degrade_budget_floor),
                "--degrade-factor", str(self.degrade_budget_factor),
            ]
        if self.replace:
            command += ["--replace"]
        process = await asyncio.create_subprocess_exec(
            *command,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        handle.process = process
        assert process.stdout is not None
        try:
            await asyncio.wait_for(
                self._await_banner(handle, process), self.spawn_timeout_s
            )
        except asyncio.TimeoutError:
            process.kill()
            raise ServeError(
                f"{handle.name} never reported its port within "
                f"{self.spawn_timeout_s:g}s; last output: "
                f"{list(handle.recent_output)[-3:]}",
                code="unavailable",
            ) from None
        old_pump = self._pumps.pop(handle.name, None)
        if old_pump is not None:
            old_pump.cancel()
        self._pumps[handle.name] = asyncio.create_task(
            self._pump_output(handle, process)
        )
        handle.ready.set()

    async def _await_banner(
        self, handle: WorkerHandle, process: asyncio.subprocess.Process
    ) -> None:
        assert process.stdout is not None
        while True:
            raw = await process.stdout.readline()
            if not raw:
                code = await process.wait()
                raise ServeError(
                    f"{handle.name} exited during startup "
                    f"(code {code}); output: "
                    f"{list(handle.recent_output)[-5:]}",
                    code="unavailable",
                )
            line = raw.decode("utf-8", "replace").rstrip()
            handle.recent_output.append(line)
            if line.startswith("serving on "):
                handle.port = int(line.split()[2].rsplit(":", 1)[1])
                return

    async def _pump_output(
        self, handle: WorkerHandle, process: asyncio.subprocess.Process
    ) -> None:
        """Keep draining a live worker's stdout so its pipe never fills."""
        assert process.stdout is not None
        with contextlib.suppress(Exception):
            while True:
                raw = await process.stdout.readline()
                if not raw:
                    return
                handle.recent_output.append(
                    raw.decode("utf-8", "replace").rstrip()
                )

    async def _monitor(self, handle: WorkerHandle) -> None:
        """Watch one slot forever: detect death, recover, re-admit."""
        while not self._stopping:
            process = handle.process
            if process is None:
                return
            await process.wait()
            if self._stopping:
                return
            # Unexpected death. Hold the shard (ready stays cleared) so
            # the router parks requests instead of failing them, then
            # respawn over the same WAL directory — replay happens in
            # the child before its banner, i.e. before re-admission.
            handle.ready.clear()
            self.metrics.counter("worker_deaths").inc()
            self.metrics.counter(f"worker_deaths.{handle.name}").inc()
            if handle.restarts >= self.max_restarts:
                self.metrics.counter("worker_abandoned").inc()
                return
            handle.restarts += 1
            try:
                await self._spawn(handle)
            except ServeError:
                self.metrics.counter("worker_respawn_failures").inc()
                continue  # the failed child dies immediately; retry
            self.metrics.counter("worker_respawns").inc()

    async def acquire(
        self, name: str, *, timeout_s: float = 10.0
    ) -> WorkerHandle:
        """The ready handle for shard ``name``, waiting out a respawn.

        Raises:
            ServeError: (code ``unavailable``) when the shard does not
                come back within ``timeout_s`` — crash loop, abandoned
                worker, or a respawn slower than the caller can wait.
        """
        handle = self._by_name.get(name)
        if handle is None:
            raise ServeError(f"unknown shard {name!r}", code="unavailable")
        try:
            await asyncio.wait_for(handle.ready.wait(), timeout_s)
        except asyncio.TimeoutError:
            raise ServeError(
                f"shard {name} is unavailable (worker down, not yet "
                f"recovered after {timeout_s:g}s)",
                code="unavailable",
            ) from None
        return handle

    def kill(self, name: str, *, sig: int = signal.SIGKILL) -> None:
        """Send ``sig`` to a worker process (the chaos harness's lever)."""
        handle = self._by_name[name]
        if handle.process is not None and handle.process.returncode is None:
            handle.process.send_signal(sig)

    async def drain(self) -> dict:
        """Graceful fleet shutdown: SIGTERM every worker, await exit 0.

        Each worker runs its own PR-7 drain (flush every live session,
        persist its partition store, truncate its WAL) before exiting.

        Returns:
            ``{"exit_codes": {name: code}}``.
        """
        self._stopping = True
        exit_codes: dict[str, "int | None"] = {}
        for handle in self.handles:
            if handle.alive:
                assert handle.process is not None
                handle.process.terminate()
        for handle in self.handles:
            process = handle.process
            if process is None:
                exit_codes[handle.name] = None
                continue
            try:
                await asyncio.wait_for(process.wait(), self.spawn_timeout_s)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
            exit_codes[handle.name] = process.returncode
            handle.ready.clear()
        await self._reap_tasks()
        return {"exit_codes": exit_codes}

    async def stop(self) -> None:
        """Tear the fleet down without waiting for graceful drains."""
        self._stopping = True
        for handle in self.handles:
            if handle.alive:
                assert handle.process is not None
                handle.process.kill()
        for handle in self.handles:
            if handle.process is not None:
                with contextlib.suppress(ProcessLookupError):
                    await handle.process.wait()
            handle.ready.clear()
        await self._reap_tasks()

    async def _reap_tasks(self) -> None:
        for task in (*self._monitors, *self._pumps.values()):
            task.cancel()
        for task in (*self._monitors, *self._pumps.values()):
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._monitors.clear()
        self._pumps.clear()

    def stats(self) -> dict:
        """JSON-ready fleet view for the router's merged ``stats``."""
        return {
            "workers": len(self.handles),
            "ring_replicas": self.ring.replicas,
            "worker_deaths": self.metrics.counter("worker_deaths").value,
            "worker_respawns": self.metrics.counter("worker_respawns").value,
            "shards": {
                handle.name: {
                    "port": handle.port,
                    "alive": handle.alive,
                    "ready": handle.ready.is_set(),
                    "restarts": handle.restarts,
                    "wal_dir": None if handle.wal_dir is None else str(handle.wal_dir),
                    "store_path": (
                        None if handle.store_path is None else str(handle.store_path)
                    ),
                }
                for handle in self.handles
            },
        }
