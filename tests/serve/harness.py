"""Event-loop and process harness for the serving tests.

pytest-asyncio is not part of this project's toolchain, so socket tests
wrap their coroutine in :func:`run_async`: a fresh event loop per test
plus an :func:`asyncio.wait_for` deadline that fires *before* the
suite-level SIGALRM watchdog, turning a hung protocol exchange into an
ordinary test failure with a stack trace.

Beyond the loop plumbing this module holds the shared test vocabulary —
:func:`fixes_of` / :func:`stream_session` for driving a session over the
wire, :func:`running_server` / :func:`running_router` for in-process
servers and sharded fleets, and :func:`spawned_server` for tests that
need a real ``repro serve`` subprocess they can murder (guaranteed
teardown even when the test fails mid-kill).
"""

from __future__ import annotations

import asyncio
import contextlib
from pathlib import Path

from repro.serve.chaos import free_port, spawn_server
from repro.serve.client import ServeClient
from repro.serve.pool import WorkerPool
from repro.serve.router import ServeRouter
from repro.serve.server import TrajectoryServer
from repro.types import Fix

#: Inner deadline; the conftest SIGALRM watchdog sits above it at 30 s.
HARNESS_TIMEOUT_S = 20.0


def fixes_of(traj) -> list[Fix]:
    """A trajectory's points as the wire-level ``Fix`` stream."""
    return [Fix(float(t), float(x), float(y))
            for t, x, y in zip(traj.t, traj.x, traj.y)]


async def stream_session(server, object_id, spec, fixes, chunk) -> list[Fix]:
    """Open, append in chunks, close; returns the full retained stream.

    ``server`` is anything with ``host``/``port`` — a
    :class:`TrajectoryServer` or a :class:`ServeRouter` work alike.
    """
    retained: list[Fix] = []
    async with connected(server) as client:
        await client.open(object_id, spec)
        for start in range(0, len(fixes), chunk):
            retained.extend(
                await client.append(object_id, fixes[start : start + chunk])
            )
        summary = await client.close_session(object_id)
        retained.extend(summary["retained"])
    return retained


def run_async(coro):
    """Run ``coro`` on a fresh loop with the harness deadline applied."""

    async def _bounded():
        return await asyncio.wait_for(coro, timeout=HARNESS_TIMEOUT_S)

    return asyncio.run(_bounded())


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    """A started :class:`TrajectoryServer` on an ephemeral port."""
    kwargs.setdefault("port", 0)
    server = TrajectoryServer(**kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


@contextlib.asynccontextmanager
async def connected(server):
    """A :class:`ServeClient` connected to anything with host/port."""
    client = await ServeClient.connect(server.host, server.port)
    try:
        yield client
    finally:
        await client.aclose()


@contextlib.asynccontextmanager
async def running_router(tmp_path: Path, workers: int = 2, **kwargs):
    """A started :class:`ServeRouter` over ``workers`` real worker
    subprocesses, with per-shard WAL dirs and store partitions under
    ``tmp_path``; hard-stopped (fleet SIGKILL) on exit unless the test
    drained it first.

    Pool-level kwargs (``max_sessions``, ``idle_timeout_s``, ...) and
    router-level kwargs (``shed_inflight``, ``acquire_timeout_s``) are
    split automatically.
    """
    router_keys = {"shed_inflight", "acquire_timeout_s", "metrics"}
    router_kwargs = {k: kwargs.pop(k) for k in list(kwargs) if k in router_keys}
    kwargs.setdefault("idle_timeout_s", 3600.0)
    kwargs.setdefault("sweep_interval_s", 3600.0)
    pool = WorkerPool(
        workers, wal_dir=tmp_path / "wal", store_path=tmp_path / "fleet.rsto",
        **kwargs
    )
    router = ServeRouter(pool, **router_kwargs)
    await router.start()
    try:
        yield router
    finally:
        await router.stop()


@contextlib.contextmanager
def spawned_server(tmp_path: Path, port: "int | None" = None):
    """A real ``repro serve`` subprocess on ``port`` (default: ephemeral),
    journalling under ``tmp_path``; yields ``(process, port, wal_dir,
    store_path)`` and guarantees the process is dead on exit.

    The spawn blocks until the child's ``serving on`` banner, i.e. until
    WAL replay finished and the socket is bound.
    """
    port = free_port() if port is None else port
    wal_dir, store_path = tmp_path / "wal", tmp_path / "server.rsto"
    process = spawn_server(port, wal_dir, store_path)
    try:
        yield process, port, wal_dir, store_path
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)
