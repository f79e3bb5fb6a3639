"""Sharded serve-tier tests: the consistent-hash router over a worker
fleet.

Two layers. The fast half exercises the router's pure logic — merged
``stats`` payloads and the drain-time partition-store merge — without
spawning anything. The ``slow``-marked half drives real ``repro serve``
worker subprocesses through a live router: session routing and the
drain/merge endgame, protocol-v2 seq semantics (stale-seq ``resume``
after a worker is murdered and respawned, ``bad-seq`` on a gap,
``duplicate: true`` dedup across a router-mediated reconnect), and the
per-shard backpressure responses.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.exceptions import ServeError
from repro.serve.chaos import SPEC, free_port, make_fixes, pick_shard_sessions
from repro.serve.pool import WorkerPool
from repro.serve.protocol import encode_message
from repro.serve.router import ServeRouter, merge_partition_stores
from repro.serve.pool import partition_path
from repro.storage.store import TrajectoryStore
from repro.trajectory import Trajectory
from repro.types import Fix

from tests.serve.harness import (
    connected,
    run_async,
    running_router,
    stream_session,
)

pytestmark = pytest.mark.serve


def _worker_metrics(fixes_in: int) -> dict:
    return {"counters": {"fixes_in": fixes_in}, "gauges": {},
            "timers": {}, "histograms": {}}


def _shard_payload(fixes_in: int, *, wal_failed: bool = False) -> dict:
    return {
        "live_sessions": 1,
        "fixes_in": fixes_in,
        "wal": {"failed": wal_failed},
        "metrics": _worker_metrics(fixes_in),
    }


def _stored_points(store: TrajectoryStore, object_id: str) -> list[Fix]:
    trajectory = store.get(object_id)
    return [Fix(float(t), float(x), float(y))
            for t, x, y in zip(trajectory.t, trajectory.x, trajectory.y)]


class TestMergedStatsPayload:
    """ServeRouter.stats() as a pure merge over worker payloads."""

    def _router(self) -> ServeRouter:
        return ServeRouter(WorkerPool(2))

    def test_lifecycle_counters_sum_and_shards_pass_through(self):
        payload = self._router().stats(
            {"worker-0": _shard_payload(10), "worker-1": _shard_payload(5)},
            [],
        )
        assert payload["role"] == "router"
        assert payload["protocol_version"] >= 2
        assert payload["live_sessions"] == 2
        assert payload["fixes_in"] == 15
        # Each worker's full payload survives under its shard name.
        assert payload["shards"]["worker-1"]["fixes_in"] == 5
        assert payload["wal"]["failed"] is False
        counters = payload["metrics"]["counters"]
        assert counters["fixes_in"] == 15  # fleet aggregate
        assert counters["shard.worker-0.fixes_in"] == 10  # per-shard label

    def test_any_failed_shard_wal_fails_the_fleet(self):
        payload = self._router().stats(
            {
                "worker-0": _shard_payload(1),
                "worker-1": _shard_payload(1, wal_failed=True),
            },
            [],
        )
        assert payload["wal"]["failed"] is True
        assert payload["wal"]["shards"]["worker-0"]["failed"] is False

    def test_unreachable_shard_is_conservatively_failed(self):
        """A worker that answered nothing might hold un-flushed acks:
        the fleet ``wal.failed`` flag must go conservative so the
        durable client's lost-ack heuristic never assumes durability."""
        payload = self._router().stats(
            {"worker-0": _shard_payload(1)}, ["worker-1"]
        )
        assert payload["shards_unavailable"] == ["worker-1"]
        assert payload["wal"]["failed"] is True


class TestMergePartitionStores:
    """The drain endgame, run over hand-written partition files."""

    @staticmethod
    def _write_partition(pool: WorkerPool, name: str, object_ids) -> None:
        handle = next(h for h in pool.handles if h.name == name)
        store = TrajectoryStore()
        for i, object_id in enumerate(object_ids):
            store.insert(
                Trajectory.from_points(
                    [(0.0, float(i), 0.0), (1.0, float(i) + 1.0, 2.0)]
                ),
                object_id=object_id,
            )
        assert handle.store_path is not None
        store.save(handle.store_path, durable=False)

    def test_union_of_disjoint_partitions(self, tmp_path):
        pool = WorkerPool(2, store_path=tmp_path / "fleet.rsto")
        self._write_partition(pool, "worker-0", ["a", "b"])
        self._write_partition(pool, "worker-1", ["c"])
        merged_path = tmp_path / "merged.rsto"
        result = merge_partition_stores(pool, merged_path, durable=False)
        assert result["n_objects"] == 3
        assert result["partitions"] == {"worker-0": 2, "worker-1": 1}
        merged = TrajectoryStore.load(merged_path)
        assert sorted(merged.object_ids()) == ["a", "b", "c"]
        # Adopted blobs are verbatim: the merged copy decodes identically.
        partition = TrajectoryStore.load(
            partition_path(tmp_path / "fleet.rsto", "worker-0")
        )
        assert _stored_points(merged, "a") == _stored_points(partition, "a")

    def test_missing_partition_file_counts_zero(self, tmp_path):
        pool = WorkerPool(2, store_path=tmp_path / "fleet.rsto")
        self._write_partition(pool, "worker-0", ["only"])
        result = merge_partition_stores(
            pool, tmp_path / "merged.rsto", durable=False
        )
        assert result["partitions"] == {"worker-0": 1, "worker-1": 0}

    def test_cross_partition_duplicate_is_a_ring_violation(self, tmp_path):
        pool = WorkerPool(2, store_path=tmp_path / "fleet.rsto")
        self._write_partition(pool, "worker-0", ["dup"])
        self._write_partition(pool, "worker-1", ["dup"])
        with pytest.raises(ServeError) as err:
            merge_partition_stores(pool, tmp_path / "merged.rsto",
                                   durable=False)
        assert err.value.code == "storage"
        # replace=True is the explicit escape hatch (last shard wins).
        result = merge_partition_stores(
            pool, tmp_path / "merged.rsto", durable=False, replace=True
        )
        assert result["n_objects"] == 1


def _mapped_numpy(pid: "int | str") -> bool:
    """Whether numpy's compiled core is mapped into process ``pid``."""
    return "_multiarray_umath" in Path(f"/proc/{pid}/maps").read_text()


@pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs /proc/<pid>/maps"
)
def test_live_router_never_maps_numpy(tmp_path):
    """A ``repro serve --workers 2`` router serves a session, queries,
    stats and a flush without numpy ever entering its address space,
    and still merges the partitions at drain."""
    assert _mapped_numpy("self")  # the probe sees numpy where it is loaded
    port = free_port()
    store_path = tmp_path / "fleet.rsto"
    router = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", str(port),
            "--workers", "2", "--store", str(store_path),
            "--wal", str(tmp_path / "wal"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        start_new_session=True,  # the workers join the router's group
    )
    assert router.stdout is not None
    try:
        for line in router.stdout:
            if "serving on" in line:
                break
        else:
            pytest.fail(f"router exited during startup (code {router.wait()})")
        fixes = make_fixes(40, 9)

        async def scenario():
            async with connected(SimpleNamespace(host="127.0.0.1", port=port)) \
                    as client:
                await client.open("live", SPEC)
                await client.append("live", fixes[:20])
                await client.query_position("live", fixes[5].t)
                await client.query_window(fixes[0].t, fixes[-1].t)
                await client.query_nearest(fixes[5].x, fixes[5].y, fixes[5].t)
                await client.append("live", fixes[20:])
                stats = await client.stats()
                await client.close_session("live")
                await client.flush()
                return stats

        stats = run_async(scenario())
        assert stats["role"] == "router" and stats["fixes_in"] == len(fixes)
        assert not _mapped_numpy(router.pid)
        router.send_signal(signal.SIGTERM)
        output, _ = router.communicate(timeout=20.0)
    finally:
        # A router that dies without draining leaves its workers running.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(router.pid, signal.SIGKILL)
        router.wait(timeout=20.0)
    assert router.returncode == 0
    assert "drained: 2/2 worker(s) exited cleanly, merged 1 object(s)" in output
    assert TrajectoryStore.load(store_path).object_ids() == ["live"]


@pytest.mark.parametrize(("corrupt", "algorithm", "expected"), [
    ("worker-1", [], "worker-1 exited during startup (code 2)"),
    (None, ["--algorithm", "td-tr:epsilon=30"], "is a batch-only algorithm"),
], ids=["corrupt-partition", "batch-only-spec"])
def test_failed_fleet_start_leaves_no_worker(tmp_path, corrupt, algorithm, expected):
    """A worker that cannot start (a corrupt partition, a spec no
    session could use) fails the fleet: the router exits 2, and any
    worker that did start is killed and reaped with it instead of
    outliving its router."""
    store_path = tmp_path / "fleet.rsto"
    if corrupt is not None:
        partition_path(store_path, corrupt).write_bytes(b"not a store")
    router = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", "2", "--store", str(store_path),
            "--wal", str(tmp_path / "wal"), *algorithm,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        start_new_session=True,  # the workers join the router's group
    )
    try:
        output, _ = router.communicate(timeout=60.0)
        try:
            os.killpg(router.pid, 0)  # is any process left in the group?
        except ProcessLookupError:
            survivors = False
        else:
            survivors = True
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(router.pid, signal.SIGKILL)
        router.wait(timeout=20.0)
    assert router.returncode == 2
    assert expected in output and "serving on" not in output
    assert not survivors, "a worker outlived the failed fleet start"


@pytest.mark.slow
class TestFleetIntegration:
    """Real worker subprocesses behind a live router."""

    def test_sessions_route_stream_and_merge(self, tmp_path):
        n_fixes, chunk = 80, 10

        async def scenario():
            async with running_router(tmp_path, workers=2) as router:
                owners = pick_shard_sessions(router.pool, per_shard=1)
                streams = {}
                for i, sid in enumerate(owners):
                    fixes = make_fixes(n_fixes, 100 + i)
                    retained = await stream_session(
                        router, sid, SPEC, fixes, chunk
                    )
                    streams[sid] = retained
                async with connected(router) as client:
                    stats = await client.stats()
                drained = await router.drain()
                return owners, streams, stats, drained

        owners, streams, stats, drained = run_async(scenario())
        # Both shards really served (the ids were pinned per shard).
        assert set(owners.values()) == {"worker-0", "worker-1"}
        assert stats["role"] == "router"
        assert stats["fixes_in"] == 2 * n_fixes
        for name in ("worker-0", "worker-1"):
            assert stats["shards"][name]["shard"] == name
            assert f"shard.{name}.fixes_in" in stats["metrics"]["counters"]
        assert stats["wal"]["failed"] is False
        assert stats["router"]["requests_proxied"] > 0
        # Graceful drain: every worker flushed and exited clean, and the
        # partition merge produced one store holding every session.
        assert set(drained["workers"].values()) == {0}
        assert drained["merged"]["n_objects"] == len(owners)
        merged = TrajectoryStore.load(tmp_path / "fleet.rsto")
        for sid, retained in streams.items():
            reference = TrajectoryStore()
            reference.insert(
                Trajectory.from_points([(f.t, f.x, f.y) for f in retained]),
                object_id=sid,
            )
            assert _stored_points(merged, sid) == _stored_points(
                reference, sid
            )

    def test_seq_semantics_survive_worker_murder(self, tmp_path):
        """Protocol v2 through a respawn: ``resume`` reports the WAL-
        recovered seq, a stale re-send dedups, a gap is ``bad-seq``."""
        fixes = make_fixes(40, 5)

        async def scenario():
            async with running_router(tmp_path, workers=2) as router:
                owners = pick_shard_sessions(router.pool, per_shard=1)
                sid, owner = next(iter(owners.items()))
                handle = router.pool.handle_for(sid)
                outcomes = {}
                async with connected(router) as client:
                    await client.open(sid, SPEC)
                    for k in range(3):
                        await client.append(
                            sid, fixes[k * 10 : (k + 1) * 10], seq=k + 1
                        )
                    router.pool.kill(owner)  # SIGKILL, mid-session
                    # Wait until the monitor respawned it over its WAL.
                    while not (handle.restarts >= 1 and handle.ready.is_set()):
                        await asyncio.sleep(0.05)
                    # Stale-seq resume after the restart: the respawn
                    # replayed the WAL, so the acked prefix is all there.
                    resumed = await client.resume(sid)
                    outcomes["resumed"] = resumed
                    # Re-sending the last acked batch (stale seq) must
                    # replay the cached ack, not apply twice.
                    dup = await client.append_response(
                        sid, fixes[20:30], seq=3
                    )
                    outcomes["duplicate"] = dup.get("duplicate")
                    # A gap mid-stream is refused before any state moves.
                    try:
                        await client.append(sid, fixes[30:40], seq=5)
                        outcomes["gap"] = None
                    except ServeError as exc:
                        outcomes["gap"] = exc.code
                    await client.append(sid, fixes[30:40], seq=4)
                    outcomes["summary"] = await client.close_session(sid)
                return outcomes

        outcomes = run_async(scenario())
        assert outcomes["resumed"]["seq"] == 3
        assert outcomes["resumed"]["fixes_in"] == 30
        assert outcomes["duplicate"] is True
        assert outcomes["gap"] == "bad-seq"
        assert outcomes["summary"]["stored"]["n_raw_points"] == 40

    def test_duplicate_dedup_across_router_reconnect(self, tmp_path):
        """The lost-ack window, router-mediated: an append frame whose
        ack died with the connection is re-sent after reconnecting and
        answered ``duplicate: true`` by the owning worker."""
        fixes = make_fixes(20, 3)

        async def scenario():
            async with running_router(tmp_path, workers=2) as router:
                owners = pick_shard_sessions(router.pool, per_shard=1)
                sid = next(iter(owners))
                async with connected(router) as client:
                    await client.open(sid, SPEC)
                    await client.append(sid, fixes[:10], seq=1)
                # Fire the second batch and slam the connection shut
                # before the ack can come back.
                reader, writer = await asyncio.open_connection(
                    router.host, router.port
                )
                flat = [v for fix in fixes[10:] for v in fix]
                writer.write(encode_message({
                    "op": "append", "session": sid, "seq": 2,
                    "fixes_flat": flat,
                }))
                await writer.drain()
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                async with connected(router) as again:
                    # The worker applies the orphan frame asynchronously;
                    # poll resume (idempotent) until it shows up.
                    deadline = time.monotonic() + 5.0
                    resumed = await again.resume(sid)
                    while resumed["seq"] < 2 and time.monotonic() < deadline:
                        await asyncio.sleep(0.02)
                        resumed = await again.resume(sid)
                    response = await again.append_response(
                        sid, fixes[10:], seq=2
                    )
                    summary = await again.close_session(sid)
                return resumed, response, summary

        resumed, response, summary = run_async(scenario())
        assert resumed["seq"] == 2  # the un-acked frame was applied
        assert response.get("duplicate") is True  # re-send dedup'd
        assert summary["stored"]["n_raw_points"] == 20  # exactly once

    def test_backpressure_and_rejection_codes(self, tmp_path):
        async def scenario():
            async with running_router(
                tmp_path, workers=2, shed_inflight=1
            ) as router:
                owners = pick_shard_sessions(router.pool, per_shard=1)
                sid, owner = next(iter(owners.items()))
                handle = router.pool.handle_for(sid)
                codes = {}
                async with connected(router) as client:
                    await client.open(sid, SPEC)
                    # A drowning shard sheds; its neighbour keeps serving.
                    gauge = router.metrics.gauge(f"shard_inflight.{owner}")
                    gauge.inc()
                    try:
                        await client.resume(sid)
                    except ServeError as exc:
                        codes["shed"] = exc.code
                    other = next(s for s, o in owners.items() if o != owner)
                    await client.open(other, SPEC)  # unaffected shard
                    gauge.dec()
                    # A shard that stays down past the acquire deadline.
                    router.acquire_timeout_s = 0.2
                    handle.ready.clear()
                    try:
                        await client.resume(sid)
                    except ServeError as exc:
                        codes["down"] = exc.code
                    handle.ready.set()
                    router.acquire_timeout_s = 15.0
                    # A draining router refuses new session work.
                    router._draining = True
                    try:
                        await client.resume(sid)
                    except ServeError as exc:
                        codes["draining"] = exc.code
                    router._draining = False
                    # Router-level protocol errors.
                    try:
                        await client.request({"op": "warp", "session": sid})
                    except ServeError as exc:
                        codes["unknown-op"] = exc.code
                    try:
                        await client.request(
                            {"op": "open", "session": "", "spec": SPEC}
                        )
                    except ServeError as exc:
                        codes["bad-id"] = exc.code
                    stats = await client.stats()
                return codes, stats

        codes, stats = run_async(scenario())
        assert codes == {
            "shed": "rejected",
            "down": "unavailable",
            "draining": "rejected",
            "unknown-op": "bad-request",
            "bad-id": "bad-request",
        }
        assert stats["router"]["requests_shed"] >= 1
