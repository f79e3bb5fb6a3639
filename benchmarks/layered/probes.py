"""Layer probes: one layer's public entry points driven in this process.

A traced run of ``bench_layers.py`` takes each layer's numbers from the
spans of the workload itself. A layer the workload never touches (the
batch workload has no sessions, only query-live queries the store, ...)
is driven here instead, under the same span recorder, on inputs
``bench_layers.py`` derives from the workload's seed, so its numbers come
out of the same span analysis. The ``drive_*`` functions only make the
calls; the caller installs the recorder around them.

Three probes always run, because their numbers have no counterpart in a
workload's own spans: the online compressors' push cost
(:func:`push_probe`), the store codec (:func:`codec_probe`) and store
saves at fixed sizes (:func:`store_size_probe`). :func:`pool_probe`
gives the batch engine's pool speed-up on server workloads.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from pathlib import Path

from batch_runner import SPECS as CORE_SPECS
from batch_runner import WORKERS
from repro.geometry.bbox import BBox
from repro.obs import Registry
from repro.pipeline import BatchEngine
from repro.query.engine import QueryEngine
from repro.serve.protocol import ok_response
from repro.serve.session import SessionManager
from repro.serve.wal import WalWriter
from repro.storage.codec import decode_trajectory, encode_trajectory
from repro.storage.store import TrajectoryStore
from repro.streaming.base import Eviction
from repro.streaming.registry import make_online_compressor
from repro.types import Fix

BATCH = 25
WAL_COMMITS = 100
#: Objects held when the store probe times a save.
STORE_SIZES = (1000, 5000, 20000)
#: Saves timed at each size; the median is reported.
SAVES_PER_SIZE = 3


def _batches(streams: list[list]) -> list[list]:
    return [
        rows[start : start + BATCH]
        for rows in streams
        for start in range(0, len(rows) - BATCH + 1, BATCH)
    ]


def drive_protocol(streams: list[list]) -> int:
    """Decode append lines, parse their fixes, encode acks; returns fixes parsed."""
    import repro.serve.server as server

    fixes = 0
    for seq, batch in enumerate(_batches(streams), start=1):
        flat = [value for row in batch for value in row]
        line = server.encode_message(
            {"op": "append", "session": "probe", "seq": seq, "fixes_flat": flat}
        )
        server.decode_line(line)
        fixes += len(server.parse_flat_fixes(flat))
        server.encode_message(
            ok_response("append", "probe", seq=seq, retained=batch[::5],
                        n_retained=len(batch[::5]))
        )
    return fixes


def drive_sessions(streams: list[list], specs: list[str]) -> None:
    """SessionManager open, 25-fix append batches and close per stream."""
    manager = SessionManager(TrajectoryStore(metrics=Registry()), metrics=Registry())
    for index, rows in enumerate(streams):
        sid = f"probe-{index}"
        manager.open(sid, specs[index % len(specs)])
        fixes = [Fix(*row) for row in rows]
        for start in range(0, len(fixes), BATCH):
            manager.append_batch(sid, fixes[start : start + BATCH])
        manager.close(sid)


def drive_wal(streams: list[list], work: Path) -> None:
    """Durable WalWriter commits of one append batch each, as the server awaits them."""
    batches = [[Fix(*row) for row in batch] for batch in _batches(streams)[:WAL_COMMITS]]

    async def commits(writer: WalWriter) -> None:
        writer.stage_open("probe", "opw-tr:epsilon=25")
        await writer.commit()
        for seq, batch in enumerate(batches, start=1):
            writer.stage_append("probe", seq, batch)
            await writer.commit()

    writer = WalWriter(work / "wal-probe", durable=True)
    try:
        asyncio.run(commits(writer))
    finally:
        writer.close()


def drive_queries(store: TrajectoryStore, queries: list[tuple]) -> None:
    """QueryEngine verbs for ``(kind, ...)`` tuples as the query workload sends them."""
    engine = QueryEngine(store, metrics=Registry())
    for query in queries:
        if query[0] == "position":
            engine.position_at(query[1], query[2])
        elif query[0] == "window":
            engine.window(query[1], query[2], BBox(*query[3]))
        else:
            engine.nearest(*query[1:4], k=query[4])


def drive_batch(trajectories: list) -> dict[str, int]:
    """The five batch specs inline over ``trajectories``; returns points kept per spec."""
    kept = {}
    for spec in CORE_SPECS:
        run = BatchEngine(spec, workers=0, evaluate="sync").run(trajectories)
        kept[spec.split(":", 1)[0]] = sum(item.n_kept for item in run.results)
    return kept


def push_probe(streams: list[list], specs: tuple) -> dict:
    """Online compressor push cost per fix; SQUISH-E evictions per fix."""
    out = {}
    fixes = [[Fix(*row) for row in rows] for rows in streams]
    total = sum(len(stream) for stream in fixes)
    for spec in specs:
        name = spec.split(":", 1)[0]
        evictions = 0
        started = time.perf_counter()
        for stream in fixes:
            push = make_online_compressor(spec).push
            for fix in stream:
                for event in push(fix):
                    if type(event) is Eviction:
                        evictions += 1
        out[f"streaming.push_us_per_fix.{name}"] = (
            (time.perf_counter() - started) / total * 1e6
        )
        if name == "squish":
            out["streaming.evictions_per_fix.squish"] = evictions / total
    return out


def codec_probe(trajectories: list) -> dict:
    """Store codec encode/decode cost per point."""
    points = sum(len(traj) for traj in trajectories)
    started = time.perf_counter()
    blobs = [encode_trajectory(traj, 1e-3, 0.01) for traj in trajectories]
    encoded = time.perf_counter() - started
    started = time.perf_counter()
    for blob in blobs:
        decode_trajectory(blob)
    decoded = time.perf_counter() - started
    return {
        "codec.encode_us_per_point": encoded / points * 1e6,
        "codec.decode_us_per_point": decoded / points * 1e6,
    }


def store_size_probe(trajectories: list, work: Path) -> dict:
    """Save (fsync + rename) cost against objects held; one load at 5,000.

    ``trajectories`` must hold at least the largest of :data:`STORE_SIZES`.
    Under a recorder this also leaves ``store.insert``, ``store.save`` and
    ``store.load`` spans.
    """
    store = TrajectoryStore(cell_size_m=2_000.0, metrics=Registry())
    path = work / "store-probe.rsto"
    out = {}
    for size in STORE_SIZES:
        for traj in trajectories[len(store) : size]:
            store.insert(traj)
        saves = []
        for _ in range(SAVES_PER_SIZE):
            started = time.perf_counter()
            store.save(path, durable=True)
            saves.append(time.perf_counter() - started)
        out[f"store.save_ms.n{size}"] = statistics.median(saves) * 1e3
        if size == 5000:
            TrajectoryStore.load(path, metrics=Registry())
    path.unlink()
    return out


def pool_probe(trajectories: list) -> float:
    """Inline time over pooled time for one spec on the same items."""
    spec = CORE_SPECS[1]
    started = time.perf_counter()
    BatchEngine(spec, workers=0, evaluate="sync").run(trajectories)
    inline_s = time.perf_counter() - started
    started = time.perf_counter()
    BatchEngine(spec, workers=WORKERS, evaluate="sync").run(trajectories)
    return inline_s / (time.perf_counter() - started)
