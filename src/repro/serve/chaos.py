"""Process-level fault injection for the crash-safe serve tier.

Each scenario kills real processes while a client streams: ``sigkill``
SIGKILLs a ``repro serve`` subprocess at a seeded-random
acknowledgement and restarts it over the same WAL directory;
``worker-kill`` SIGKILLs one worker of a router-fronted fleet and lets
the pool respawn it. Either way the client reconnects, resumes and
finishes, and the durability contract is proven the hard way:

    **every session's stored stream is byte-identical to an
    uninterrupted run over all its fixes.**

"Byte-identical" is checked at the float level: the stored
trajectory's ``t``/``x``/``y`` values must equal, exactly, what the same
online compressor produces over the same fixes in one uninterrupted
pass. Because streaming compression is deterministic, any divergence —
a lost batch, a double-applied batch, a reordering — shows up as a
failed comparison, not a heuristic.

In-process faults (failed commits, torn WAL tails, lost acks) are the
rules of the model in ``tests/serve/test_serve_model.py``. Run these
scenarios via ``repro serve-chaos`` or through pytest:
``pytest -m chaos``.
"""

from __future__ import annotations

import asyncio
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ReproError
from repro.serve.client import DurableServeClient
from repro.serve.pool import WorkerPool
from repro.serve.router import ServeRouter
from repro.serve.wal import scan_wal
from repro.storage.store import TrajectoryStore
from repro.streaming.registry import make_online_compressor
from repro.types import Fix

__all__ = [
    "SCENARIOS",
    "ScenarioResult",
    "free_port",
    "pick_shard_sessions",
    "run_chaos",
    "run_scenario",
    "spawn_server",
]

#: Scenario registry, in the order ``repro serve-chaos`` runs them.
SCENARIOS = ("sigkill", "worker-kill")

#: Compressor under test; opening-window with a mid-size tolerance so
#: batches regularly both retain and discard points.
SPEC = "opw-tr:epsilon=25"


@dataclass
class ScenarioResult:
    """One scenario's verdict plus the numbers behind it."""

    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


def make_fixes(n: int, seed: int) -> list[Fix]:
    """A deterministic bounded random walk of ``n`` fixes (1 Hz)."""
    rng = random.Random(seed)
    fixes, x, y = [], 0.0, 0.0
    for i in range(n):
        x += rng.uniform(-14.0, 14.0)
        y += rng.uniform(-14.0, 14.0)
        fixes.append(Fix(float(i), x, y))
    return fixes


def reference_selection(spec: str, fixes: list[Fix]) -> list[Fix]:
    """The uninterrupted run: one pass, push everything, finish."""
    compressor = make_online_compressor(spec)
    retained: list[Fix] = []
    for fix in fixes:
        retained.extend(compressor.push(fix))
    retained.extend(compressor.finish())
    return retained


def _stored_points(store: TrajectoryStore, object_id: str) -> list[Fix]:
    trajectory = store.get(object_id)
    return [
        Fix(float(t), float(x), float(y))
        for t, x, y in zip(trajectory.t, trajectory.x, trajectory.y)
    ]


def _store_round_trip(selection: list[Fix]) -> list[Fix]:
    """A selection as the store would hold it (deterministic quantization).

    The store's delta codec quantizes coordinates, so "byte-identical"
    is asserted at the stored level: the reference selection goes
    through the same encode/decode as the recovered one, and equal
    inputs produce equal bytes. Any lost, doubled or reordered point
    still diverges.
    """
    from repro.trajectory.trajectory import Trajectory

    trajectory = Trajectory.from_points([(f.t, f.x, f.y) for f in selection])
    store = TrajectoryStore()
    store.insert(trajectory, object_id="reference")
    return _stored_points(store, "reference")


def _assert_stored_identical(
    spec: str, fixes: list[Fix], stored: list[Fix], detail: dict
) -> None:
    """The harness's core assertion (see the module docstring).

    Raises:
        AssertionError: the durability contract was violated.
    """
    expected = _store_round_trip(reference_selection(spec, fixes))
    detail.update(stored_points=len(stored), expected_points=len(expected))
    assert stored == expected, (
        f"stored selection diverged from the uninterrupted reference "
        f"({len(stored)} vs {len(expected)} points)"
    )


# --------------------------------------------------------------------- #
# Subprocess scenario: SIGKILL at a seeded-random acknowledgement
# --------------------------------------------------------------------- #


def free_port() -> int:
    """An ephemeral TCP port, bound-and-released (small reuse race OK)."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_server(port: int, wal_dir: Path, store_path: Path) -> subprocess.Popen:
    """A real ``repro serve`` subprocess, returned once it reports ready.

    Shared by the ``sigkill`` scenario and the test harness: blocks until
    the child prints its ``serving on`` banner (which only happens after
    WAL replay and socket bind), so the caller may connect immediately.
    """
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--wal", str(wal_dir),
            "--store", str(store_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert process.stdout is not None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise ReproError(
                f"server subprocess exited during startup "
                f"(code {process.poll()})"
            )
        if "serving on" in line:
            return process
    process.kill()
    raise ReproError("server subprocess never reported 'serving on'")


async def _scenario_sigkill(base: Path, seed: int, n_fixes: int) -> dict:
    """SIGKILL the real server process at a seeded-random ack offset.

    The full stack, no shortcuts: a subprocess running ``repro serve``
    with a WAL, killed with the one signal nothing can handle, restarted
    over the same directory, resumed by the reconnecting client. The
    final store must match the uninterrupted reference over **all**
    fixes — nothing lost, nothing doubled.
    """
    rng = random.Random(seed)
    fixes = make_fixes(n_fixes, seed)
    batch = 10
    n_batches = (n_fixes + batch - 1) // batch
    kill_after = rng.randint(1, n_batches - 1)
    port = free_port()
    wal_dir, store_path = base / "wal", base / "chaos.rsto"

    server = spawn_server(port, wal_dir, store_path)
    restarted: subprocess.Popen | None = None
    try:
        client = DurableServeClient(
            "127.0.0.1", port, timeout=10.0, max_retries=8,
            backoff_base_s=0.1, backoff_max_s=1.0,
        )
        async with client:
            await client.open("chaos", SPEC)
            killed = False
            for k in range(n_batches):
                if k == kill_after and not killed:
                    server.kill()          # SIGKILL: no handlers, no flush
                    server.wait(timeout=30.0)
                    restarted = spawn_server(port, wal_dir, store_path)
                    killed = True
                await client.append("chaos", fixes[k * batch : (k + 1) * batch])
            await client.close_session("chaos")
            reconnects = client.reconnects

        store = TrajectoryStore.load(store_path)
        detail: dict = {
            "kill_after_batch": kill_after,
            "reconnects": reconnects,
        }
        _assert_stored_identical(SPEC, fixes, _stored_points(store, "chaos"), detail)
        # The drained close also truncated the WAL: nothing live remains.
        leftover = scan_wal(wal_dir)
        assert not leftover.live_sessions, (
            f"WAL still holds live sessions after a flushed close: "
            f"{sorted(leftover.live_sessions)}"
        )
        return detail
    finally:
        for process in (server, restarted):
            if process is not None and process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)


# --------------------------------------------------------------------- #
# Sharded-fleet scenario: SIGKILL one worker under a live router
# --------------------------------------------------------------------- #


def pick_shard_sessions(pool: WorkerPool, per_shard: int) -> dict[str, str]:
    """Session ids covering every shard: ``{session_id: owning_worker}``.

    Scans deterministic candidate ids (the ring hash is process-stable)
    until each worker owns ``per_shard`` of them, so the kill provably
    disrupts some sessions while others ride on untouched shards.
    """
    wanted = {name: per_shard for name in pool.worker_names}
    chosen: dict[str, str] = {}
    for i in range(10_000):
        sid = f"obj-{i}"
        owner = pool.ring.node_for(sid)
        if wanted.get(owner, 0) > 0:
            wanted[owner] -= 1
            chosen[sid] = owner
        if not any(wanted.values()):
            return chosen
    raise ReproError("ring never covered every shard (broken hash?)")


async def _scenario_worker_kill(base: Path, seed: int, n_fixes: int) -> dict:
    """SIGKILL one shard's worker while clients stream through the router.

    The full sharded stack: a :class:`ServeRouter` over two real
    ``repro serve`` worker subprocesses, sessions pinned to both shards
    by the consistent-hash ring, a :class:`DurableServeClient` streaming
    them interleaved. Mid-stream, the worker owning half the sessions is
    SIGKILLed. The pool monitor must respawn it over its own WAL
    directory (replay *before* the banner, so the router re-admits the
    hash range only once recovery is done), the client must resume
    through the router, and sessions on the surviving shard must never
    notice. The drain endgame merges both partitions; every session's
    stored stream must be byte-identical to an uninterrupted run.
    """
    rng = random.Random(seed)
    batch = 10
    n_batches = (n_fixes + batch - 1) // batch
    kill_before = rng.randint(1, n_batches - 1)
    wal_dir, store_path = base / "wal", base / "fleet.rsto"

    pool = WorkerPool(
        2,
        wal_dir=wal_dir,
        store_path=store_path,
        idle_timeout_s=3600.0,
        sweep_interval_s=3600.0,
    )
    router = ServeRouter(pool)
    await router.start()
    owners = pick_shard_sessions(pool, per_shard=2)
    sessions = {
        sid: make_fixes(n_fixes, seed + i) for i, sid in enumerate(owners)
    }
    victim = next(iter(owners.values()))
    try:
        client = DurableServeClient(
            router.host, router.port, timeout=10.0, max_retries=8,
            backoff_base_s=0.1, backoff_max_s=1.0,
        )
        async with client:
            for sid in sessions:
                await client.open(sid, SPEC)
            killed = False
            for k in range(n_batches):
                if k == kill_before and not killed:
                    pool.kill(victim)  # SIGKILL; the monitor owns recovery
                    killed = True
                for sid, fixes in sessions.items():
                    await client.append(sid, fixes[k * batch : (k + 1) * batch])
            for sid in sessions:
                await client.close_session(sid)
            reconnects = client.reconnects

        drained = await router.drain()
        exit_codes = drained["workers"]
        assert all(code == 0 for code in exit_codes.values()), (
            f"drain left non-zero worker exits: {exit_codes}"
        )
        merged = drained["merged"]
        assert merged is not None and merged["n_objects"] == len(sessions), (
            f"merge lost objects: {merged}"
        )

        store = TrajectoryStore.load(store_path)
        detail: dict = {
            "victim": victim,
            "kill_before_batch": kill_before,
            "owners": owners,
            "reconnects": reconnects,
            "respawns": pool.metrics.counter("worker_respawns").value,
            "worker_exit_codes": exit_codes,
            "merged_objects": merged["n_objects"],
            "sessions": {},
        }
        assert detail["respawns"] >= 1, "the killed worker was never respawned"
        for sid, fixes in sessions.items():
            per_session: dict = {"owner": owners[sid]}
            _assert_stored_identical(SPEC, fixes, _stored_points(store, sid), per_session)
            detail["sessions"][sid] = per_session
        # Every session closed flushed-and-acked, so no shard's WAL may
        # still hold live state after the drain.
        for handle in pool.handles:
            assert handle.wal_dir is not None
            leftover = scan_wal(handle.wal_dir)
            assert not leftover.live_sessions, (
                f"{handle.name} WAL still live after drain: "
                f"{sorted(leftover.live_sessions)}"
            )
        return detail
    finally:
        await router.stop()


# --------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------- #

_RUNNERS = {
    "sigkill": _scenario_sigkill,
    "worker-kill": _scenario_worker_kill,
}


def run_scenario(name: str, *, seed: int = 7, n_fixes: int = 120) -> ScenarioResult:
    """Run one scenario in a throwaway directory; never raises.

    Returns:
        A :class:`ScenarioResult`; assertion failures and unexpected
        errors land in ``detail["error"]`` with ``passed`` false.
    """
    runner = _RUNNERS.get(name)
    if runner is None:
        raise ValueError(
            f"unknown chaos scenario {name!r}; known: {', '.join(SCENARIOS)}"
        )
    with tempfile.TemporaryDirectory(prefix=f"repro-chaos-{name}-") as tmp:
        try:
            detail = asyncio.run(runner(Path(tmp), seed, n_fixes))
        except (AssertionError, ReproError, OSError) as exc:
            return ScenarioResult(
                name, False, {"error": f"{type(exc).__name__}: {exc}"}
            )
    return ScenarioResult(name, True, detail)


def run_chaos(
    scenarios: "tuple[str, ...] | list[str] | None" = None,
    *,
    seed: int = 7,
    n_fixes: int = 120,
) -> dict:
    """Run the selected scenarios (``None``: all) and summarize.

    An empty selection runs nothing.

    Returns:
        ``{"passed": bool, "seed": ..., "scenarios": [per-scenario dicts]}``.
    """
    names = SCENARIOS if scenarios is None else tuple(scenarios)
    results = [run_scenario(name, seed=seed, n_fixes=n_fixes) for name in names]
    return {
        "passed": all(r.passed for r in results),
        "seed": seed,
        "n_fixes": n_fixes,
        "scenarios": [
            {"name": r.name, "passed": r.passed, **r.detail} for r in results
        ],
    }
