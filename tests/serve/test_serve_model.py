"""A model of the durable serve path: what was acknowledged survives.

One Hypothesis state machine drives an in-process
:class:`TrajectoryServer` with a WAL and a store file, with no sockets
and an injected clock, through the two steps ``_process_queue`` takes
for every request line: the dispatch (``_handle_line``) and the
durability barrier (``_durable``). Idle eviction runs through the
sweeper's ``_sweep``.

The model is what the server acknowledged: per live session its spec
and acknowledged append batches, replayed online through that spec (the
compressors are deterministic), and a reference store holding what
acknowledged closes and evictions stored. Rules: open, append (the next
``seq``, a gap, and the same ``seq`` re-sent after a lost ack), resume,
close, flush, stats, idle sweeps, position / window / nearest queries,
an injected commit failure at ``wal.write``, ``wal.fsync`` or
``wal.commit``, and a crash. A crash aborts the server (no flush, no
commit), cuts every WAL segment back to its size after the last
successful commit, may tear a half-written record onto the last one,
and boots a new server over the same paths, sometimes twice.

Invariants:

* every acknowledged fix survives any crash: the recovered sessions are
  exactly the model's, byte-identical, and recovering twice equals
  recovering once (a tear is counted once, then never again);
* a session whose close was acknowledged is in the store after recovery
  and never comes back live;
* position, window and nearest answers equal a brute-force merge over
  the model, live sessions shadowing stored records;
* after a failed commit nothing staged into the failed group is
  acknowledged; ``open``, ``append`` and ``close`` are refused, while
  ``stats``, queries and ``resume`` are still answered.

The store file starts with one object. A close or eviction the store
refuses (an id already stored, which only a session recovered from the
WAL may replace) ends the session without a truncation marker: the WAL
keeps it, and a crash brings it back live unless a later open of the
same id superseded it.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.exceptions import StorageError
from repro.geometry.bbox import BBox
from repro.serve.faults import Fault, FaultInjector
from repro.serve.protocol import encode_message
from repro.serve.server import TrajectoryServer
from repro.storage.store import TrajectoryStore
from repro.streaming.base import partition_events
from repro.streaming.registry import make_online_compressor
from repro.trajectory.trajectory import Trajectory
from repro.types import Fix

from tests.serve.test_overlay_differential import (
    merged_nearest,
    merged_position,
    merged_window,
)

IDS = ("a", "b", "c")
SPECS = ("opw-tr:epsilon=25", "operb:epsilon=25", "squish:budget=5")
FAULT_POINTS = ("wal.write", "wal.fsync", "wal.commit")
MODES = ("stored", "possibly", "definitely")
MAX_SESSIONS = 2
IDLE_TIMEOUT_S = 10.0
#: Small segments, so commits rotate them and truncation unlinks them.
SEGMENT_BYTES = 1_500
#: What a crash mid-write leaves at a segment's tail: half a record.
TORN_RECORD = b'00000000 {"k":"a","s":"a","q":99,"f":"AAAA'


def wire(fixes: list[Fix]) -> list[list[float]]:
    return [[fix.t, fix.x, fix.y] for fix in fixes]


def walk(seed: int, n: int, after: Fix | None) -> list[Fix]:
    """``n`` fixes of a random walk that continues ``after`` (or starts
    somewhere new): the next batch of one session."""
    rng = random.Random(seed)
    if after is None:
        after = Fix(rng.uniform(0.0, 60.0), rng.uniform(-300.0, 300.0),
                    rng.uniform(-300.0, 300.0))
        fixes = [after]
    else:
        fixes = []
    while len(fixes) < n:
        last = fixes[-1] if fixes else after
        fixes.append(Fix(last.t + rng.uniform(1.0, 20.0),
                         last.x + rng.uniform(-45.0, 45.0),
                         last.y + rng.uniform(-45.0, 45.0)))
    return fixes


class Tracked:
    """A live session as the model knows it: its spec and acknowledged
    batches, replayed online through the spec."""

    def __init__(self, spec: str, batches=(), *, now: float, recovered: bool = False):
        self.spec = spec
        self.recovered = recovered
        self.last_active = now
        self.batches: list[list[Fix]] = []
        self.compressor = make_online_compressor(spec)
        self.kept: dict[float, Fix] = {}
        self.pending: list[Fix] = []
        self.last: tuple[list[Fix], list[Fix]] = ([], [])
        for batch in batches:
            self.push(batch)

    @property
    def seq(self) -> int:
        return len(self.batches)

    @property
    def fixes(self) -> list[Fix]:
        return [fix for batch in self.batches for fix in batch]

    def push(self, batch: list[Fix]) -> tuple[list[Fix], list[Fix]]:
        """Apply one acknowledged batch; returns what it retained and evicted."""
        kept, evicted = partition_events(
            [event for fix in batch for event in self.compressor.push(fix)]
        )
        for fix in kept:
            self.kept[fix.t] = fix
        for fix in evicted:
            del self.kept[fix.t]
        self.pending.extend(batch)
        if kept:
            self.pending = [fix for fix in self.pending if fix.t > kept[-1].t]
        self.batches.append(batch)
        self.last = (kept, evicted)
        return self.last

    def snapshot(self) -> Trajectory | None:
        """Every acknowledged fix the session can answer queries with."""
        points = [*self.kept.values(), *self.pending] if self.kept else []
        return trajectory(points) if points else None

    def durable(self) -> tuple[str, tuple[list[Fix], ...]]:
        return self.spec, tuple(self.batches)


def trajectory(points: list[Fix], object_id: str | None = None) -> Trajectory:
    return Trajectory(np.array([p.t for p in points]),
                      np.array([[p.x, p.y] for p in points]), object_id)


class DurableServeModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.base = Path(tempfile.mkdtemp(prefix="repro-serve-model-"))
        self.wal_dir, self.store_path = self.base / "wal", self.base / "model.rsto"
        self.loop = asyncio.new_event_loop()
        self.now = 1_000.0
        self.live: dict[str, Tracked] = {}
        #: Sessions the store refused to take: gone from the server, live
        #: in the WAL.
        self.limbo: dict[str, tuple] = {}
        #: What the WAL recovers: the live and limbo sessions as of the
        #: last successful commit.
        self.durable: dict[str, tuple] = {}
        # The store file starts with one object, so some flushes conflict.
        self.reference = TrajectoryStore()
        preload = walk(0, 8, None)
        self.reference.insert(trajectory(preload, IDS[-1]), compressor=None)
        self.reference.save(self.store_path, durable=False)
        self.armed = False
        self.wal_failed = False
        self.server = self._boot(torn=False)

    def teardown(self) -> None:
        self.server.abort()
        self.loop.close()
        shutil.rmtree(self.base, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Driving the server
    # ------------------------------------------------------------------ #

    def clock(self) -> float:
        return self.now

    def _boot(self, *, torn: bool) -> TrajectoryServer:
        """A new server over the same paths, recovered as ``start`` does."""
        self.faults = FaultInjector()
        server = TrajectoryServer(
            store_path=self.store_path, wal_dir=self.wal_dir, durable=False,
            max_sessions=MAX_SESSIONS, idle_timeout_s=IDLE_TIMEOUT_S,
            faults=self.faults, clock=self.clock,
        )
        assert server.wal is not None
        server.wal.segment_bytes = SEGMENT_BYTES
        server.recovery = server.manager.recover()
        assert server.recovery["dropped_lines"] == int(torn), server.recovery
        assert server.recovery["sessions"] == len(self.durable), server.recovery
        assert server.recovery["failed"] == 0, server.recovery
        self.committed = self._segment_sizes()
        return server

    def _segment_sizes(self) -> dict[Path, int]:
        return {path: path.stat().st_size for path in self.wal_dir.glob("seg-*.wal")}

    def _send(self, message: dict) -> dict:
        """One request line: dispatch, then the durability barrier."""
        server = self.server
        response = self.loop.run_until_complete(
            server._durable(server._handle_line(encode_message(message)))
        )
        return json.loads(encode_message(response))

    def _commits(self, staged: bool, response: dict) -> bool:
        """Whether the records this step ``staged`` were committed.

        Under an armed fault they were not, and the reply must refuse.
        """
        if staged and self.armed:
            assert response["ok"] is False and response["code"] == "wal-failure", response
            self.armed, self.wal_failed = False, True
            return False
        return True

    def _settle(self) -> None:
        """After each step: what a successful commit made durable."""
        if not self.wal_failed:
            self.durable = {key: t.durable() for key, t in self.live.items()}
            self.durable.update(self.limbo)
            self.committed = self._segment_sizes()

    @staticmethod
    def _refused(response: dict, code: str) -> None:
        assert response["ok"] is False and response["code"] == code, response

    def _flush(self, key: str, tracked: Tracked) -> tuple[bool, dict | None, list[Fix]]:
        """A session ending into the reference store, as the server's
        flush ends it. Returns ``(landed, stored record fields, tail)``;
        a flush the store refuses leaves the session in limbo."""
        tail, evicted = partition_events(tracked.compressor.finish())
        if not tracked.batches:
            return True, None, tail
        kept = dict(tracked.kept)
        for fix in tail:
            kept[fix.t] = fix
        for fix in evicted:
            del kept[fix.t]
        selection = list(kept.values())
        try:
            record = self.reference.insert(
                trajectory(selection, key), object_id=key, compressor=None,
                replace=tracked.recovered, raw_point_count=len(tracked.fixes),
                sync_error_bound_m=tracked.compressor.sync_error_bound(),
            )
        except StorageError:
            self.limbo[key] = tracked.durable()
            return False, None, tail
        return True, {
            "object_id": key,
            "n_raw_points": record.n_raw_points,
            "n_stored_points": record.n_stored_points,
            "stored_bytes": record.stored_bytes,
            "sync_error_bound_m": record.sync_error_bound_m,
        }, tail

    def _evict_idle(self) -> bool:
        """The model's idle eviction; returns whether it staged markers."""
        staged = False
        for key, tracked in list(self.live.items()):
            if self.now - tracked.last_active >= IDLE_TIMEOUT_S:
                del self.live[key]
                landed, _, _ = self._flush(key, tracked)
                staged |= landed and not self.wal_failed
        return staged

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #

    def _pick(self, data, live: bool) -> str:
        """An id that is ``live`` (or not), if there is one."""
        pool = [key for key in IDS if (key in self.live) == live]
        return data.draw(st.sampled_from(pool or IDS))

    @rule(data=st.data(), spec=st.sampled_from(SPECS), n=st.integers(0, 6),
          seed=st.integers(0, 2**16))
    def open(self, data, spec: str, n: int, seed: int) -> None:
        """Open a session and, when ``n``, append its first batch."""
        key = self._pick(data, live=False)
        message = {"op": "open", "session": key, "spec": spec}
        if self.wal_failed:
            self._refused(self._send(message), "wal-failure")
            return
        if key in self.live:
            self._refused(self._send(message), "duplicate-session")
            return
        staged = len(self.live) >= MAX_SESSIONS and self._evict_idle()
        admitted = len(self.live) < MAX_SESSIONS
        response = self._send(message)
        if not self._commits(staged or admitted, response):
            return
        if not admitted:
            self._refused(response, "rejected")
        else:
            assert response["ok"] and response["spec"] == spec, response
            self.limbo.pop(key, None)
            self.live[key] = Tracked(spec, now=self.now)
        self._settle()
        if admitted and n:
            self._append(key, walk(seed, n, None), gap=False)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), n=st.integers(1, 6), seed=st.integers(0, 2**16),
          skip=st.integers(0, 5), dt=st.floats(0.0, 4.0))
    def append(self, data, n: int, seed: int, skip: int, dt: float) -> None:
        """The next batch, or (``skip`` 5) one ``seq`` past it."""
        key = self._pick(data, live=True)
        self.now += dt
        tracked = self.live[key]
        self._append(key, walk(seed, n, tracked.fixes[-1] if tracked.batches else None),
                     gap=skip == 5)

    def _append(self, key: str, batch: list[Fix], gap: bool) -> None:
        tracked = self.live[key]
        seq = tracked.seq + (2 if gap else 1)
        response = self._send({"op": "append", "session": key, "seq": seq,
                               "fixes_flat": [v for fix in batch for v in fix]})
        if self.wal_failed:
            self._refused(response, "wal-failure")
        elif gap:
            self._refused(response, "bad-seq")
        elif self._commits(True, response):
            kept, evicted = tracked.push(batch)
            tracked.last_active = self.now
            assert response["ok"] and response["seq"] == seq, response
            assert response["retained"] == wire(kept), response
            assert response.get("evicted", []) == wire(evicted), response
            self._settle()
        else:
            del self.live[key]

    @precondition(lambda self: any(t.seq for t in self.live.values()))
    @rule(data=st.data())
    def resend(self, data) -> None:
        """A batch re-sent under its ``seq`` after a lost ack: answered
        ``duplicate`` with the original decisions, applied once."""
        key = data.draw(st.sampled_from(sorted(k for k, t in self.live.items() if t.seq)))
        tracked = self.live[key]
        seq = data.draw(st.integers(1, tracked.seq))
        response = self._send({"op": "append", "session": key, "seq": seq,
                               "fixes": wire(tracked.batches[seq - 1])})
        if self.wal_failed:
            self._refused(response, "wal-failure")
            return
        kept, evicted = tracked.last if seq == tracked.seq else ([], [])
        assert response["ok"] and response["duplicate"] is True, response
        assert response["seq"] == seq and response["retained"] == wire(kept), response
        assert response.get("evicted", []) == wire(evicted), response

    @rule(data=st.data())
    def resume(self, data) -> None:
        key = self._pick(data, live=True)
        response = self._send({"op": "resume", "session": key})
        tracked = self.live.get(key)
        if tracked is None:
            self._refused(response, "unknown-session")
            return
        assert response["ok"], response
        assert (response["seq"], response["fixes_in"], response["spec"],
                response["recovered"]) == (tracked.seq, len(tracked.fixes),
                                           tracked.spec, tracked.recovered), response

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def close(self, data) -> None:
        key = self._pick(data, live=True)
        response = self._send({"op": "close", "session": key})
        if self.wal_failed:
            self._refused(response, "wal-failure")
            return
        tracked = self.live.pop(key)
        landed, stored, tail = self._flush(key, tracked)
        if not landed:
            self._refused(response, "storage")
        elif self._commits(True, response):
            assert response["ok"], response
            assert response["retained"] == wire(tail), response
            assert response["stored"] == stored, response
        self._settle()

    @rule()
    def flush_and_stats(self) -> None:
        response = self._send({"op": "flush"})
        assert response["ok"] and response["n_objects"] == len(self.reference), response
        assert TrajectoryStore.load(self.store_path).object_ids() == \
            self.reference.object_ids()
        response = self._send({"op": "stats"})
        assert response["ok"], response
        stats = response["stats"]
        assert stats["live_sessions"] == len(self.live)
        assert stats["stored_objects"] == len(self.reference)
        assert stats["wal"]["failed"] is self.wal_failed

    @rule(dt=st.floats(0.0, 2 * IDLE_TIMEOUT_S))
    def sweep(self, dt: float) -> None:
        """Time passes; the idle sweep evicts (and flushes) idle sessions."""
        self.now += dt
        staged = self._evict_idle()
        self.loop.run_until_complete(self.server._sweep())
        if staged and self.armed:
            self.armed, self.wal_failed = False, True
        self._settle()

    @precondition(lambda self: not (self.armed or self.wal_failed))
    @rule(point=st.sampled_from(FAULT_POINTS))
    def fail_disk(self, point: str) -> None:
        """The next commit fails at ``point``, and every one after it."""
        self.faults.set(point, Fault(error=OSError(f"injected {point} failure"),
                                     once=False))
        self.armed = True

    @rule(tear=st.booleans(), twice=st.booleans())
    def crash(self, tear: bool, twice: bool) -> None:
        """Abort, lose every uncommitted byte, maybe tear the tail, boot."""
        self.server.abort()
        for path in self.wal_dir.glob("seg-*.wal"):
            size = self.committed.get(path)
            if size is None:
                path.unlink()
            else:
                with path.open("r+b") as handle:
                    handle.truncate(size)
        segments = sorted(self.wal_dir.glob("seg-*.wal"))
        torn = tear and bool(segments)
        if torn:
            with segments[-1].open("ab") as handle:
                handle.write(TORN_RECORD)
        self.limbo.clear()
        self.live = {
            key: Tracked(spec, batches, now=self.now, recovered=True)
            for key, (spec, batches) in self.durable.items()
        }
        self.armed = self.wal_failed = False
        self.server = self._boot(torn=torn)
        if twice:
            self.server.abort()
            self.server = self._boot(torn=False)
        self._check_recovered()

    def _check_recovered(self) -> None:
        manager = self.server.manager
        assert sorted(manager.sessions) == sorted(self.live)
        for key, tracked in self.live.items():
            session = manager.sessions[key]
            assert (session.spec, session.last_seq, session.n_fixes_in, session.recovered) \
                == (tracked.spec, tracked.seq, len(tracked.fixes), True)
            expected, actual = tracked.snapshot(), session.snapshot()
            assert (expected is None) == (actual is None)
            if expected is not None:
                assert actual.t.tolist() == expected.t.tolist()
                assert actual.xy.tolist() == expected.xy.tolist()
        store = self.server.store
        assert store.object_ids() == self.reference.object_ids()
        for key in store.object_ids():
            assert store.get(key).t.tolist() == self.reference.get(key).t.tolist()
            assert store.get(key).xy.tolist() == self.reference.get(key).xy.tolist()
            assert store.record(key).sync_error_bound_m == \
                self.reference.record(key).sync_error_bound_m

    # ------------------------------------------------------------------ #
    # Queries: the engine against a brute-force merge over the model
    # ------------------------------------------------------------------ #

    def _overlays(self) -> dict:
        out = {}
        for key, tracked in self.live.items():
            snapshot = tracked.snapshot()
            if snapshot is not None:
                out[key] = (snapshot, tracked.compressor.sync_error_bound())
        return out

    def _samples(self) -> tuple[list[float], np.ndarray]:
        trajs = [self.reference.get(key) for key in self.reference.object_ids()]
        trajs += [snapshot for snapshot, _ in self._overlays().values()]
        return sorted({float(v) for traj in trajs for v in traj.t}), \
            np.vstack([traj.xy for traj in trajs])

    @rule(kind=st.sampled_from(("position", "window", "nearest")),
          key=st.sampled_from((*IDS, "nobody")), i=st.integers(0, 10**6),
          j=st.integers(0, 10**6), p=st.integers(0, 10**6), between=st.booleans(),
          size=st.sampled_from((0.0, 20.0, 150.0, 2000.0)),
          edge=st.sampled_from((-1.0, -5.0, 5.0)), mode=st.sampled_from(MODES),
          boxed=st.booleans(), k=st.integers(1, 5))
    def query(self, kind, key, i, j, p, between, size, edge, mode, boxed, k) -> None:
        times, points = self._samples()
        when = times[i % len(times)]
        x, y = (float(v) for v in points[p % len(points)])
        overlays = self._overlays()
        if kind == "position":
            i %= len(times)
            if between and i + 1 < len(times):
                when = (times[i] + times[i + 1]) / 2
            response = self._send({"op": "query", "query": "position", "object": key,
                                   "t": when})
            expected = merged_position(self.reference, overlays, key, when)
            if expected is None:
                self._refused(response, "not-found")
                return
            result = response["result"]
            assert {"source": response["source"], "x": result["x"], "y": result["y"],
                    "error_bound_m": result["error_bound_m"]} == expected, response
        elif kind == "window":
            t0, t1 = sorted((when, times[j % len(times)]))
            message = {"op": "query", "query": "window", "t0": t0, "t1": t1,
                       "mode": mode}
            box = None
            if boxed:
                left = x - size / 2 if edge == -1.0 else x + edge
                box = BBox(left, y - size / 2, left + size, y + size / 2)
                message["bbox"] = [box.min_x, box.min_y, box.max_x, box.max_y]
            response = self._send(message)
            assert response["ok"], response
            assert response["objects"] == merged_window(
                self.reference, overlays, t0, t1, box, mode), response
        else:
            response = self._send({"op": "query", "query": "nearest", "x": x, "y": y,
                                   "t": when, "k": k})
            assert response["ok"], response
            assert [(entry["object"], entry["distance_m"])
                    for entry in response["results"]] == merged_nearest(
                self.reference, overlays, x, y, when, k), response


def run_model(max_examples: int, steps: int) -> None:
    DurableServeModel.TestCase.settings = settings(
        max_examples=max_examples, stateful_step_count=steps, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    DurableServeModel.TestCase().runTest()


def test_the_durable_serve_path_keeps_its_acknowledgements():
    run_model(max_examples=120, steps=50)


@pytest.mark.slow
@pytest.mark.chaos
def test_the_model_over_a_deeper_example_budget():
    run_model(max_examples=2000, steps=80)
