"""One layered benchmark for the serving, storage, query and batch paths.

Run every workload, print every end-to-end metric by name with its unit
and check that every output is correct::

    python benchmarks/layered/bench_layers.py --seed 7 -o out.json

One workload, with its traced per-layer run::

    python benchmarks/layered/bench_layers.py --seed 7 --workload churn --trace

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` without ``--trace``, its per-layer metrics
with it. ``--trace`` runs the workload twice, each time for half of
``--seconds``: untraced, then with the server started through
``traced_serve.py`` (``batch``: inline, with the batch path wrapped);
per-layer numbers come from the traced pass's spans, and from the layer
probes of ``probes.py`` for layers the workload never touches.
README.md in this directory documents workloads, metrics and checks.

Every server under test runs as its own process, started with
``python -m repro serve``. Load comes from this process: one asyncio
loop over two TCP connections, sessions multiplexed across them,
requests pipelined as NDJSON through the public ``encode_message`` /
``decode_line``. A closed-loop phase measures capacity, then an
open-loop phase sends on a fixed schedule and times each request from
when it was due.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"error: no repro package under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import layer_trace  # noqa: E402
import probes  # noqa: E402
from batch_runner import SPECS as BATCH_SPECS  # noqa: E402
from batch_runner import make_fleet, peak_rss_mb  # noqa: E402
from repro.geometry.bbox import BBox  # noqa: E402
from repro.query.baseline import brute_nearest, brute_position, brute_window  # noqa: E402
from repro.serve.pool import HashRing, partition_path  # noqa: E402
from repro.serve.protocol import decode_line, encode_message  # noqa: E402
from repro.storage.store import TrajectoryStore  # noqa: E402
from repro.streaming.base import partition_events  # noqa: E402
from repro.streaming.registry import make_online_compressor  # noqa: E402
from repro.trajectory.trajectory import Trajectory  # noqa: E402
from repro.types import Fix  # noqa: E402

WORKLOADS = ("ingest", "churn", "churn-sharded", "query-live", "batch")

#: End-to-end metrics, reported by every workload (see README.md for
#: what each means on each workload). Latency and closed-loop capacity
#: are reported beside them but not gated: across calibration runs on a
#: shared 2-vCPU host their spreads exceeded 20% on some workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "bytes_per_fix": "B",
    "rss_mb": "MB",
}

#: Per-layer metrics of a traced run, reported by every workload.
PER_LAYER_UNITS = {
    "protocol.decode_us.p50": "us",
    "protocol.encode_us.p50": "us",
    "protocol.parse_flat_us_per_fix": "us",
    "session.append_batch_us.p50": "us",
    "session.open_us.p50": "us",
    "session.close_ms.p50": "ms",
    "streaming.push_us_per_fix.opw-tr": "us",
    "streaming.push_us_per_fix.operb": "us",
    "streaming.push_us_per_fix.squish": "us",
    "streaming.evictions_per_fix.squish": "1/fix",
    "wal.commit_ms.p50": "ms",
    "wal.commit_ms.p90": "ms",
    "wal.fsync_ms.p50": "ms",
    "wal.records_per_commit": "1/commit",
    "wal.commits": "count",
    "store.insert_ms.p50": "ms",
    "store.save_ms.p50": "ms",
    "store.save_ms.n1000": "ms",
    "store.save_ms.n5000": "ms",
    "store.save_ms.n20000": "ms",
    "store.load_s": "s",
    "store.save_bytes_per_close": "B",
    "codec.encode_us_per_point": "us",
    "codec.decode_us_per_point": "us",
    "query.engine_ms.position": "ms",
    "query.engine_ms.window": "ms",
    "query.engine_ms.nearest": "ms",
    "query.decoded_bytes_per_query.position": "B",
    "query.decoded_bytes_per_query.window": "B",
    "query.decoded_bytes_per_query.nearest": "B",
    "query.prune_ratio": "ratio",
    **{f"core.compress_us_per_point.{s.split(':')[0]}": "us" for s in BATCH_SPECS},
    **{f"core.kept_points.{s.split(':')[0]}": "count" for s in BATCH_SPECS},
    "error.evaluate_us_per_point": "us",
    "pipeline.pool_speedup": "x",
    "pipeline.overhead_share": "ratio",
    "router.shard_skew": "ratio",
    "share.wait": "%",
    "share.protocol": "%",
    "share.session": "%",
    "share.wal": "%",
    "share.store": "%",
    "share.query": "%",
    "share.serve": "%",
    "trace.request_ms.p50": "ms",
    "trace.stage_sum_ratio": "ratio",
    "trace.overhead_pct": "%",
    "generator.late_share": "%",
    "generator.achieved_ratio": "ratio",
}

#: Per-layer numbers a traced run prints and writes to ``-o`` but leaves
#: out of the result line: they exist only on the workloads that have the
#: layer (a router, live-session overlays, a load generator), while the
#: result line carries the same metrics on every workload.
REPORT_UNITS = {
    "router.proxy_ms.p50": "ms",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p90": "ms",
    "query.overlay_ms.window": "ms",
    "query.overlay_ms.nearest": "ms",
    "generator.lag_ms.max": "ms",
}

#: Set-up is measured this many times per run; the median is reported.
SETUP_SPAWNS = 3
#: Share of the measured seconds spent in the closed-loop phase.
CLOSED_SHARE = 0.3
#: Uncounted closed-loop seconds before measuring, so that lazy set-up
#: in the fresh server process is done by then.
WARMUP_S = 0.5
#: Requests kept in flight per connection in closed-loop phases.
CLOSED_WINDOW = 8
#: A request sent this many milliseconds after it was due counts as late
#: (asyncio timers wake up to about a millisecond late).
LATE_MS = 2.0
#: Seconds a phase may wait for its last replies before the run fails.
REPLY_TIMEOUT_S = 30.0
#: An open-loop phase is invalid when the server falls behind by more than
#: this share of the offered requests: achieved under 98% of the offered
#: rate, or requests in flight grown, from the phase's first third to its
#: last, by more than 2% of the requests sent (and at least
#: :data:`BACKLOG_SLACK`, one churn session's requests).
SHORTFALL = 0.02
BACKLOG_SLACK = 4

INGEST_SPECS = ("opw-tr:epsilon=25", "operb:epsilon=25", "squish:budget=100")
CHURN_SPEC = "operb:epsilon=25"
LIVE_SPEC = "opw-tr:epsilon=25"
BATCH_FIXES = 25
#: Fixes in each churn session: two appends.
CHURN_FIXES = 2 * BATCH_FIXES
#: The query workload's synthetic city: a 40 km square.
CITY_M = 40_000.0
QUERY_KINDS = ("position", "window", "nearest")


@dataclass(frozen=True)
class Scale:
    """Sizes and rates; :data:`FULL` is the benchmark, :data:`SMOKE` a self-test."""

    ingest_slots: int = 100
    ingest_fixes: int = 4000
    ingest_rate: float = 600.0
    #: Closed-loop work per second, about the capacity measured on a
    #: 2-vCPU host: appends (ingest) and sessions (churn, churn-sharded).
    ingest_nominal: float = 1600.0
    churn_objects: int = 5000
    churn_points: int = 12
    churn_rate: float = 10.0
    churn_nominal: float = 30.0
    live_objects: int = 1000
    live_points: int = 70
    live_sessions: int = 200
    live_fixes: int = 1000
    live_append_rate: float = 400.0
    live_query_rate: float = 40.0
    query_window: int = 2
    batch_trips: int = 30
    verify_queries: int = 4
    setup_spawns: int = SETUP_SPAWNS


FULL = Scale()
SMOKE = Scale(
    ingest_slots=10,
    ingest_fixes=200,
    ingest_rate=200.0,
    ingest_nominal=400.0,
    churn_objects=300,
    churn_rate=10.0,
    churn_nominal=20.0,
    live_objects=200,
    live_sessions=20,
    live_fixes=400,
    live_append_rate=100.0,
    live_query_rate=20.0,
    batch_trips=3,
    verify_queries=2,
    setup_spawns=1,
)


# ---------------------------------------------------------------------- #
# Small helpers
# ---------------------------------------------------------------------- #


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def distribution_ms(values_s: list[float]) -> dict:
    """p50/p90/p99/max in milliseconds, with the sample count."""
    ms = [value * 1e3 for value in values_s]
    return {
        "n": len(ms),
        "p50": percentile(ms, 50),
        "p90": percentile(ms, 90),
        "p99": percentile(ms, 99),
        "max": max(ms) if ms else math.nan,
    }


def _descendants(pid: int) -> list[int]:
    """Every live process whose parent chain leads to ``pid``."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    resolved = str(path.resolve())
    for line in Path("/proc/mounts").read_text().splitlines():
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        inside = resolved == mount or resolved.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, kind = mount, parts[2]
    return kind


def environment(work: Path) -> dict:
    """What the numbers depend on besides the code."""
    import orjson

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "orjson": orjson.__version__,
        "platform": platform.platform(),
        "work_dir_filesystem": filesystem_of(work),
        "flush_policy": (
            "WAL: group commit, fsync before every ack; store: fsync + atomic "
            "rename on every save, one save per session close (CLI defaults)"
        ),
    }


def _child_env(trace_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env.pop(layer_trace.TRACE_DIR_ENV, None)
    env["PYTHONPATH"] = str(SRC)
    if trace_dir is not None:
        env[layer_trace.TRACE_DIR_ENV] = str(trace_dir)
    return env


def walk(rng: np.random.Generator, n: int, t0: float, origin,
         step_s: tuple = (1.0, 1.0), sigma_m: float = 10.0) -> np.ndarray:
    """A random walk as an ``(n, 3)`` array of t, x, y.

    Each step lasts ``step_s`` seconds (uniform within the range) and
    moves ``N(0, sigma_m)`` metres along each axis. Every input of the
    benchmark (session streams, preloaded and probe stores) is one.
    """
    t = t0 + np.cumsum(rng.uniform(*step_s, n))
    xy = np.asarray(origin, dtype=float) + np.cumsum(rng.normal(0.0, sigma_m, (n, 2)), axis=0)
    return np.column_stack([t, xy])


def trips(rng: np.random.Generator, count: int, points: int, prefix: str) -> list[Trajectory]:
    """Stored objects: walks of 5-15 s and 60 m steps inside the city.

    Objects of more than 20 points vary in length by up to 10 points.
    """
    out = []
    for index in range(count):
        n = int(rng.integers(points - 10, points + 10)) if points > 20 else points
        rows = walk(rng, n, rng.uniform(0.0, 80_000.0),
                    rng.uniform(0.05 * CITY_M, 0.95 * CITY_M, 2), (5.0, 15.0), 60.0)
        out.append(Trajectory(rows[:, 0], rows[:, 1:], f"{prefix}-{index:05d}"))
    return out


def replay(spec: str, rows: np.ndarray, finish: bool) -> list[Fix]:
    """Net retained stream of a fresh online compressor over ``rows``."""
    compressor = make_online_compressor(spec)
    kept: list[Fix] = []
    evicted: set[float] = set()
    for row in rows.tolist():
        retained, gone = partition_events(compressor.push(Fix(*row)))
        kept.extend(retained)
        evicted.update(fix.t for fix in gone)
    if finish:
        retained, gone = partition_events(compressor.finish())
        kept.extend(retained)
        evicted.update(fix.t for fix in gone)
    return [fix for fix in kept if fix.t not in evicted]


# ---------------------------------------------------------------------- #
# Processes under test
# ---------------------------------------------------------------------- #


class Program:
    """One process under test, ready once it prints its banner line."""

    def __init__(self, argv: list[str], banner: str, env: dict) -> None:
        self.argv = argv
        self.banner = banner
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.output: list[str] = []
        self.port: int | None = None
        self._ready_at: float | None = None
        self._ready = threading.Event()
        self._pump_thread: threading.Thread | None = None

    def start(self, timeout_s: float = 120.0) -> float:
        """Spawn and wait for the banner; returns seconds spawn -> banner."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self._pump_thread = threading.Thread(target=self._pump, daemon=True)
        self._pump_thread.start()
        self._ready.wait(timeout_s)
        if self._ready_at is None:
            self.kill()
            raise RuntimeError(
                f"{' '.join(self.argv[1:4])} never printed {self.banner!r}; "
                f"output: {self.output[-5:]}"
            )
        return self._ready_at - started

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", "replace").rstrip()
            self.output.append(line)
            if self._ready_at is None and line.startswith(self.banner):
                self._ready_at = time.perf_counter()
                if line.startswith("serving on "):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def tree(self) -> list[int]:
        assert self.proc is not None
        return [self.proc.pid, *_descendants(self.proc.pid)]

    def rss_mb(self) -> float:
        """Summed peak resident set size (VmHWM) of the process tree."""
        return sum(peak_rss_mb(pid) for pid in self.tree())

    def wait(self, timeout_s: float) -> int:
        """Wait for a process that exits by itself; returns its exit code."""
        assert self.proc is not None
        tree = self.tree()
        try:
            code = self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"{' '.join(self.argv[1:4])} ran past {timeout_s}s")
        self._reap(tree)
        return code

    def terminate(self, timeout_s: float = 120.0) -> int:
        """SIGTERM (the graceful drain) and wait for the whole tree."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout_s)

    def kill(self) -> None:
        """SIGKILL the process group and wait for every member to exit."""
        if self.proc is None:
            return
        tree = self.tree() if self.proc.poll() is None else []
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reap(tree)

    def _reap(self, pids: list[int]) -> None:
        deadline = time.monotonic() + 30.0
        while any(_alive(pid) for pid in pids):
            if time.monotonic() > deadline:
                for pid in pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.01)
        if self._pump_thread is not None:
            self._pump_thread.join(10.0)


def start_measured(make, spawns: int) -> tuple[list[float], Program]:
    """Spawn ``spawns`` times, timing spawn -> banner each time.

    All but the last spawn are killed once ready; the last keeps running
    and is returned for the workload.
    """
    times: list[float] = []
    for index in range(spawns):
        program = make()
        times.append(program.start())
        if index < spawns - 1:
            program.kill()
    return times, program


# ---------------------------------------------------------------------- #
# Sessions, requests and the load generator
# ---------------------------------------------------------------------- #


class Session:
    """One tracker's stream and everything the server answered for it."""

    __slots__ = (
        "sid", "spec", "rows", "sent", "acked", "seq", "retained",
        "evicted", "closed", "failed",
    )

    def __init__(self, sid: str, spec: str, rows: np.ndarray) -> None:
        self.sid = sid
        self.spec = spec
        self.rows = rows
        self.sent = 0
        self.acked = 0
        self.seq = 0
        self.retained: list[Fix] = []
        self.evicted: set[float] = set()
        self.closed = False
        self.failed = False

    @property
    def exhausted(self) -> bool:
        return self.sent >= len(self.rows)


class Request:
    """One wire request, its schedule and its outcome."""

    __slots__ = ("rid", "kind", "data", "session", "n_fixes", "due", "sent",
                 "done", "ok", "phase", "reply", "query")

    def __init__(self, kind: str, message: dict, session: Session | None = None,
                 n_fixes: int = 0, query: tuple | None = None) -> None:
        self.rid = next(_RIDS)
        message["rid"] = self.rid
        self.kind = kind
        self.data = encode_message(message)
        self.session = session
        self.n_fixes = n_fixes
        self.query = query
        self.due = self.sent = self.done = math.nan
        self.ok = False
        self.phase = ""
        self.reply: dict | None = None


_RIDS = iter(range(1, 1 << 62))


def open_request(session: Session) -> Request:
    return Request(
        "open", {"op": "open", "session": session.sid, "spec": session.spec}, session
    )


def append_request(session: Session) -> Request:
    rows = session.rows[session.sent : session.sent + BATCH_FIXES]
    session.sent += len(rows)
    session.seq += 1
    message = {
        "op": "append",
        "session": session.sid,
        "seq": session.seq,
        "fixes_flat": rows.ravel().tolist(),
    }
    return Request("append", message, session, len(rows))


def close_request(session: Session) -> Request:
    return Request("close", {"op": "close", "session": session.sid}, session)


def apply_reply(request: Request, reply: dict) -> None:
    """Fold one reply into its session's record of what the server said."""
    request.ok = reply.get("ok") is True
    session = request.session
    if session is None:
        request.reply = reply
        return
    if not request.ok:
        session.failed = True
        return
    if request.kind == "open":
        return
    session.retained.extend(Fix(*triple) for triple in reply.get("retained", ()))
    session.evicted.update(triple[0] for triple in reply.get("evicted", ()))
    if request.kind == "append":
        session.acked += request.n_fixes
    else:
        session.closed = True


class Connection:
    """One TCP connection: pipelined requests, replies in request order."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.inflight: deque[Request] = deque()
        self.window: asyncio.Semaphore | None = None
        self.answered: list[Request] = []
        self.reader_task = asyncio.create_task(self._read_loop())

    def send(self, request: Request, due: float, phase: str) -> None:
        request.due = due
        request.sent = time.perf_counter()
        request.phase = phase
        self.inflight.append(request)
        self.writer.write(request.data)

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            request = self.inflight.popleft()
            request.done = time.perf_counter()
            apply_reply(request, decode_line(line))
            self.answered.append(request)
            if self.window is not None:
                self.window.release()

    async def settle(self, timeout_s: float = REPLY_TIMEOUT_S) -> None:
        """Wait until every request sent so far has its reply."""
        deadline = time.perf_counter() + timeout_s
        while self.inflight:
            if self.reader_task.done():
                raise RuntimeError(f"connection lost with {len(self.inflight)} unanswered")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{len(self.inflight)} request(s) unanswered after {timeout_s}s")
            await asyncio.sleep(0.002)

    async def ask(self, request: Request) -> Request:
        """Send one request and wait for its reply."""
        self.send(request, time.perf_counter(), "control")
        await self.settle()
        return request

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        await self.reader_task


async def connect(port: int) -> Connection:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
    return Connection(reader, writer)


@dataclass
class Schedule:
    """One open-loop generator's record, for the validity check."""

    rate: float
    start: float
    end: float
    due: int = 0
    lags: list = field(default_factory=list)
    backlog: list = field(default_factory=list)
    #: ``(due, reply - due, kind)`` of every request sent, in due order.
    lateness: list = field(default_factory=list)

    def achieved_ratio(self) -> float:
        """Achieved over offered rate.

        A server that keeps up answers every request a bounded time
        after it is due; one that serves only a fraction ``r`` of the
        offered rate answers later and later, by ``1 - r`` seconds per
        second of schedule. The slope comes from the median lateness of
        the first and last thirds, each request's lateness taken relative
        to its kind's median (kinds differ in service time); unsent
        requests count against it.
        """
        sent = len(self.lags) / self.due if self.due else 1.0
        third = len(self.lateness) // 3
        if third == 0:
            return sent
        typical = {
            kind: statistics.median(x for _, x, k in self.lateness if k == kind)
            for kind in {k for _, _, k in self.lateness}
        }
        excess = [(due, late - typical[kind]) for due, late, kind in self.lateness]
        first, last = excess[:third], excess[-third:]
        span = statistics.median(d for d, _ in last) - statistics.median(d for d, _ in first)
        rise = statistics.median(x for _, x in last) - statistics.median(x for _, x in first)
        return sent * (1.0 - max(0.0, rise / span)) if span > 0 else sent

    def summary(self) -> dict:
        third = max(1, len(self.backlog) // 3)
        lags_ms = [lag * 1e3 for lag in self.lags] or [0.0]
        return {
            "offered_per_s": self.rate,
            "sent": len(self.lags),
            "achieved_ratio": self.achieved_ratio(),
            "lag_ms_max": max(lags_ms),
            "lag_ms_p50": percentile(lags_ms, 50),
            "late_share": sum(1 for lag in lags_ms if lag > LATE_MS) / len(lags_ms),
            "backlog_first_third": statistics.fmean(self.backlog[:third] or [0]),
            "backlog_last_third": statistics.fmean(self.backlog[-third:] or [0]),
        }

    def problems(self) -> list[str]:
        summary = self.summary()
        found = []
        if summary["achieved_ratio"] < 1.0 - SHORTFALL:
            found.append(f"achieved {summary['achieved_ratio']:.3f} of {self.rate}/s")
        growth = summary["backlog_last_third"] - summary["backlog_first_third"]
        if growth > max(BACKLOG_SLACK, SHORTFALL * len(self.lateness)):
            found.append(
                f"backlog grew from {summary['backlog_first_third']:.1f} to "
                f"{summary['backlog_last_third']:.1f} in flight"
            )
        return found


def limited(traffic, groups: int):
    """``traffic`` that runs dry after ``groups`` calls."""
    calls = itertools.count()
    return lambda: traffic() if next(calls) < groups else []


async def closed_loop(conn: Connection, traffic, deadline: float, window: int,
                      phase: str) -> None:
    """Keep ``window`` requests in flight until ``deadline`` or ``traffic`` runs dry."""
    conn.window = asyncio.Semaphore(window)
    pending: deque[Request] = deque()
    try:
        while True:
            await conn.window.acquire()
            now = time.perf_counter()
            if now >= deadline:
                break
            if not pending:
                pending.extend(traffic())
            if not pending:
                break
            conn.send(pending.popleft(), now, phase)
        # A session's remaining requests still go out (they are not timed).
        for request in pending:
            conn.send(request, time.perf_counter(), phase + "-tail")
        await conn.settle()
    finally:
        conn.window = None


async def open_loop(conn: Connection, traffic, schedule: Schedule, offset: float,
                    phase: str) -> None:
    """Send one group of requests every ``1/rate`` seconds, on schedule."""
    interval = 1.0 / schedule.rate
    ticks = itertools.takewhile(
        lambda due: due < schedule.end,
        (schedule.start + offset + tick * interval for tick in itertools.count()),
    )
    sent: list[Request] = []
    for due in ticks:
        schedule.due += 1
        now = time.perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            now = time.perf_counter()
        group = traffic()
        if not group:
            # Out of traffic: the ticks left are due but never sent.
            schedule.due += sum(1 for _ in ticks)
            break
        for request in group:
            conn.send(request, due, phase)
        sent.extend(group)
        schedule.lags.append(now - due)
        schedule.backlog.append(len(conn.inflight))
        if conn.writer.transport.get_write_buffer_size() > 1 << 16:
            await conn.writer.drain()
    await conn.settle()
    schedule.lateness = [(r.due, r.done - r.due, r.kind) for r in sent]


# ---------------------------------------------------------------------- #
# Traffic: what each connection sends next
# ---------------------------------------------------------------------- #


class IngestTraffic:
    """Long-lived trackers: ``slots`` live sessions appended to in turn.

    Each turn sends one session's next 25-fix append (preceded by its
    open). Sessions hold more fixes than a run sends, so none closes
    while the run is measured: closes are what churn measures, and here
    each one would hold up the appends queued behind its store save.
    A session that does run out is closed and replaced.
    """

    def __init__(self, seed: int, conn: int, scale: Scale) -> None:
        self.seed, self.conn, self.scale = seed, conn, scale
        self.slots: list[Session | None] = [None] * scale.ingest_slots
        self.turn = 0
        self.sessions: list[Session] = []

    def _new_session(self) -> Session:
        index = len(self.sessions)
        rng = np.random.default_rng([self.seed, 1, self.conn, index])
        session = Session(
            f"ingest-{self.conn}-{index:05d}",
            INGEST_SPECS[index % len(INGEST_SPECS)],
            walk(rng, self.scale.ingest_fixes, 0.0, (0.0, 0.0)),
        )
        self.sessions.append(session)
        return session

    def __call__(self) -> list[Request]:
        slot = self.turn
        self.turn = (slot + 1) % len(self.slots)
        session = self.slots[slot]
        group = []
        if session is None:
            session = self.slots[slot] = self._new_session()
            group.append(open_request(session))
        group.append(append_request(session))
        if session.exhausted:
            group.append(close_request(session))
            self.slots[slot] = None
        return group

    def closing(self) -> list[Request]:
        return [close_request(s) for s in self.slots if s is not None]


class ChurnTraffic:
    """Short sessions: open, two 25-fix appends, close."""

    def __init__(self, seed: int, conn: int) -> None:
        self.seed, self.conn = seed, conn
        self.sessions: list[Session] = []

    def __call__(self) -> list[Request]:
        index = len(self.sessions)
        rng = np.random.default_rng([self.seed, 2, self.conn, index])
        session = Session(
            f"churn-{self.conn}-{index:05d}",
            CHURN_SPEC,
            walk(rng, CHURN_FIXES, 0.0, rng.uniform(0.0, CITY_M, 2)),
        )
        self.sessions.append(session)
        return [
            open_request(session),
            append_request(session),
            append_request(session),
            close_request(session),
        ]

    def closing(self) -> list[Request]:
        return []


class LiveTraffic:
    """Appends round-robin over sessions that stay open for the whole run."""

    def __init__(self, seed: int, scale: Scale) -> None:
        rng = np.random.default_rng([seed, 3])
        self.sessions = [
            Session(
                f"live-{index:04d}",
                LIVE_SPEC,
                walk(
                    rng,
                    scale.live_fixes,
                    float(rng.uniform(0.0, 80_000.0)),
                    rng.uniform(0.1 * CITY_M, 0.9 * CITY_M, 2),
                ),
            )
            for index in range(scale.live_sessions)
        ]
        self.turn = 0

    def __call__(self) -> list[Request]:
        for _ in range(len(self.sessions)):
            session = self.sessions[self.turn]
            self.turn = (self.turn + 1) % len(self.sessions)
            if not session.exhausted:
                return [append_request(session)]
        return []

    def opening(self) -> list[Request]:
        return [open_request(session) for session in self.sessions]

    def closing(self) -> list[Request]:
        return [close_request(session) for session in self.sessions]


class QueryTraffic:
    """Position, window and nearest queries in turn, anchored on stored objects."""

    def __init__(self, seed: int, tag: int, store: TrajectoryStore) -> None:
        self.rng = np.random.default_rng([seed, 4, tag])
        self.records = [store.record(key) for key in store.object_ids()]
        self.turn = 0

    def __call__(self) -> list[Request]:
        kind = QUERY_KINDS[self.turn % len(QUERY_KINDS)]
        self.turn += 1
        rng = self.rng
        rec = self.records[int(rng.integers(len(self.records)))]
        when = float(rec.start_time + rng.uniform(0.1, 0.9) * (rec.end_time - rec.start_time))
        cx, cy = rec.bbox.center
        if kind == "position":
            query = (kind, rec.object_id, when)
            message = {"op": "query", "query": kind, "object": rec.object_id, "t": when}
        elif kind == "window":
            half = float(rng.uniform(250.0, 1_500.0))
            t0 = when - float(rng.uniform(60.0, 600.0))
            t1 = when + float(rng.uniform(60.0, 600.0))
            box = [cx - half, cy - half, cx + half, cy + half]
            query = (kind, t0, t1, box)
            message = {"op": "query", "query": kind, "t0": t0, "t1": t1, "bbox": box}
        else:
            k = int(rng.integers(1, 6))
            query = (kind, cx, cy, when, k)
            message = {"op": "query", "query": kind, "x": cx, "y": cy, "t": when, "k": k}
        return [Request(f"query-{kind}", message, query=query)]


# ---------------------------------------------------------------------- #
# Driving a server
# ---------------------------------------------------------------------- #


@dataclass
class Drive:
    """Everything one server pass sent, heard and scheduled."""

    requests: list[Request]
    sessions: list[Session]
    closed_window: tuple[float, float]
    schedules: list[Schedule]
    verify: list[Request]
    stats: dict


def _collect(conns: list[Connection]) -> list[Request]:
    return [request for conn in conns for request in conn.answered]


async def _stats(conn: Connection) -> dict:
    reply = (await conn.ask(Request("stats", {"op": "stats"}))).reply or {}
    return reply.get("stats", {})


async def drive_sessions(program: Program, traffics: list, rate: float,
                         nominal: float, closed_s: float, open_s: float) -> Drive:
    """Closed loop then open loop over two connections (ingest, churn).

    The warm-up and closed-loop phases send what ``nominal`` groups per
    second would in their seconds, however fast the host runs, so every
    run stores the same data: space and memory must not follow the
    host's speed (or a faster server would hold more). Capacity is that
    fixed work over the time it took.
    """
    conns = [await connect(program.port) for _ in traffics]
    try:
        for phase, seconds in (("warmup", WARMUP_S), ("closed", closed_s)):
            groups = max(1, round(nominal * seconds / len(conns)))
            closed_start = time.perf_counter()
            await asyncio.gather(*(
                closed_loop(conn, limited(traffic, groups), math.inf, CLOSED_WINDOW, phase)
                for conn, traffic in zip(conns, traffics)
            ))
        closed_end = time.perf_counter()
        start = time.perf_counter()
        per_conn = rate / len(conns)
        schedules = [Schedule(per_conn, start, start + open_s) for _ in conns]
        await asyncio.gather(*(
            open_loop(conn, traffic, schedule, index / rate, "open")
            for index, (conn, traffic, schedule) in enumerate(
                zip(conns, traffics, schedules)
            )
        ))
        for conn, traffic in zip(conns, traffics):
            for request in traffic.closing():
                conn.send(request, time.perf_counter(), "closing")
        for conn in conns:
            await conn.settle()
        stats = await _stats(conns[0])
    finally:
        for conn in conns:
            await conn.close()
    return Drive(
        requests=_collect(conns),
        sessions=[s for traffic in traffics for s in traffic.sessions],
        closed_window=(closed_start, closed_end),
        schedules=schedules,
        verify=[],
        stats=stats,
    )


async def drive_query_live(program: Program, seed: int, scale: Scale,
                           store: TrajectoryStore, closed_s: float,
                           open_s: float) -> Drive:
    """Queries on connection 0 while connection 1 appends to live sessions."""
    live = LiveTraffic(seed, scale)
    queries = QueryTraffic(seed, 0, store)
    query_conn, append_conn = [await connect(program.port) for _ in range(2)]
    conns = [query_conn, append_conn]
    try:
        for request in live.opening():
            append_conn.send(request, time.perf_counter(), "opening")
        await append_conn.settle()
        # The append stream keeps its schedule through the warm-up and the
        # closed-loop query phase; only the queries run closed-loop.
        warmup_start = time.perf_counter()
        closed_end = warmup_start + WARMUP_S + closed_s
        background = Schedule(scale.live_append_rate, warmup_start, closed_end)

        async def query_phases() -> float:
            await closed_loop(query_conn, queries, warmup_start + WARMUP_S,
                              scale.query_window, "warmup")
            start = time.perf_counter()
            await closed_loop(query_conn, queries, closed_end, scale.query_window,
                              "closed")
            return start

        closed_start, _ = await asyncio.gather(
            query_phases(),
            open_loop(append_conn, live, background, 0.0, "closed-appends"),
        )
        start = time.perf_counter()
        schedules = [
            Schedule(scale.live_query_rate, start, start + open_s),
            Schedule(scale.live_append_rate, start, start + open_s),
        ]
        await asyncio.gather(
            open_loop(query_conn, queries, schedules[0], 0.0, "open"),
            open_loop(append_conn, live, schedules[1], 0.5 / scale.live_append_rate, "open"),
        )
        for request in live.closing():
            append_conn.send(request, time.perf_counter(), "closing")
        await append_conn.settle()
        verifier = QueryTraffic(seed, 1, store)
        verify = [
            request
            for _ in range(scale.verify_queries * len(QUERY_KINDS))
            for request in verifier()
        ]
        for request in verify:
            query_conn.send(request, time.perf_counter(), "verify")
        await query_conn.settle()
        stats = await _stats(query_conn)
    finally:
        for conn in conns:
            await conn.close()
    return Drive(
        requests=_collect(conns),
        sessions=live.sessions,
        closed_window=(closed_start, closed_end),
        schedules=schedules,
        verify=verify,
        stats=stats,
    )


# ---------------------------------------------------------------------- #
# Correctness gates
# ---------------------------------------------------------------------- #


def check_sessions(sessions: list[Session], store: TrajectoryStore, preload: int,
                   tamper: bool) -> list[str]:
    """Served streams == online replay; the store holds exactly them."""
    problems = []
    flushed = [s for s in sessions if s.acked > 0]
    expected = preload + len(flushed) + (1 if tamper else 0)
    if len(store) != expected:
        problems.append(f"store holds {len(store)} objects, expected {expected}")
    unclosed = sum(1 for s in flushed if not s.closed)
    if unclosed:
        problems.append(f"{unclosed} session(s) never acknowledged their close")
    bad_stream = bad_record = 0
    for session in flushed:
        served = [fix for fix in session.retained if fix.t not in session.evicted]
        oracle = replay(session.spec, session.rows[: session.acked], session.closed)
        if tamper:
            oracle = oracle[:-1]
        if served != oracle:
            bad_stream += 1
            continue
        if session.sid not in store:
            bad_record += 1
            continue
        traj = store.get(session.sid)
        record = store.record(session.sid)
        if (
            record.n_raw_points != session.acked
            or len(traj) != len(served)
            or not np.allclose(traj.t, [fix.t for fix in served], rtol=0, atol=1e-3)
            or not np.allclose(traj.xy, [(fix.x, fix.y) for fix in served], rtol=0,
                               atol=1e-2)
        ):
            bad_record += 1
    if bad_stream:
        problems.append(f"{bad_stream} served stream(s) differ from the online replay")
    if bad_record:
        problems.append(f"{bad_record} stored record(s) differ from the served stream")
    return problems


def check_queries(verify: list[Request], store: TrajectoryStore, tamper: bool) -> list[str]:
    """A seeded sample of served answers == brute force on the drained store."""
    wrong = 0
    for request in verify:
        reply = request.reply or {}
        kind = request.query[0]
        if not request.ok:
            wrong += 1
            continue
        if kind == "position":
            _, key, when = request.query
            expected = [float(v) for v in brute_position(store, key, when)]
            got = [reply["result"]["x"], reply["result"]["y"]]
        elif kind == "window":
            _, t0, t1, box = request.query
            expected = sorted(brute_window(store, t0, t1, BBox(*box)))
            got = reply["objects"]
        else:
            _, x, y, when, k = request.query
            expected = [list(pair) for pair in brute_nearest(store, x, y, when, k=k)]
            got = [[entry["object"], entry["distance_m"]] for entry in reply["results"]]
        if tamper:
            expected = [*expected, "tampered"]
        if got != expected:
            wrong += 1
    return [f"{wrong} of {len(verify)} query answer(s) differ from brute force"] if wrong else []


# ---------------------------------------------------------------------- #
# Traces
# ---------------------------------------------------------------------- #

_LAYER_PREFIXES = (
    ("request.", "serve"),
    ("protocol.", "protocol"),
    ("session.", "session"),
    ("wal.", "wal"),
    ("store.", "store"),
    ("os.fsync", "store"),
    ("query.", "query"),
)
SHARE_LAYERS = ("wait", "protocol", "session", "wal", "store", "query", "serve")


def _layer(name: str) -> str:
    for prefix, layer in _LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "serve"


def layer_metrics(span_lists: list[list], fixes_parsed: int = 0,
                  points: dict | None = None) -> dict:
    """Per-layer metrics from spans, for every layer the spans cover.

    ``span_lists`` holds one span list per process. ``fixes_parsed`` and
    ``points`` (per compressor) are the work the spans did, for the
    per-fix and per-point costs. Session spans are reported by self time
    (``session.close`` without its store insert and save); the others
    are leaves or include their children.
    """
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    queries: list[tuple] = []
    for spans in span_lists:
        own = layer_trace.self_times(spans)
        notes = []
        for span in spans:
            durations.setdefault(span[2], []).append(span[4] - span[3])
            selfs.setdefault(span[2], []).append(own[span[0]])
            if span[6] is not None:
                notes.append((span[4], span[2].rsplit(".", 1)[-1], span[6]))
        # The engine's decoded-bytes counter is cumulative per process.
        decoded = 0.0
        for _, verb, (total, prune) in sorted(notes):
            queries.append((verb, total - decoded, prune))
            decoded = total
    out: dict = {}

    def put(metric: str, values: list | None, q: float = 50, scale: float = 1.0) -> None:
        if values:
            out[metric] = percentile(values, q) * scale

    put("protocol.decode_us.p50", durations.get("protocol.decode"), scale=1e6)
    put("protocol.encode_us.p50", durations.get("protocol.encode"), scale=1e6)
    if fixes_parsed and "protocol.parse_flat" in durations:
        out["protocol.parse_flat_us_per_fix"] = (
            sum(durations["protocol.parse_flat"]) / fixes_parsed * 1e6
        )
    put("session.append_batch_us.p50", selfs.get("session.append_batch"), scale=1e6)
    put("session.open_us.p50", selfs.get("session.open"), scale=1e6)
    put("session.close_ms.p50", selfs.get("session.close"), scale=1e3)
    put("wal.commit_ms.p50", durations.get("wal.commit"), scale=1e3)
    put("wal.commit_ms.p90", durations.get("wal.commit"), q=90, scale=1e3)
    put("wal.fsync_ms.p50", durations.get("os.fsync.wal"), scale=1e3)
    put("store.insert_ms.p50", durations.get("store.insert"), scale=1e3)
    put("store.save_ms.p50", durations.get("store.save"), scale=1e3)
    put("store.load_s", durations.get("store.load"))
    for verb in QUERY_KINDS:
        put(f"query.engine_ms.{verb}", durations.get(f"query.engine.{verb}"), scale=1e3)
        decoded = [delta for kind, delta, _ in queries if kind == verb]
        if decoded:
            out[f"query.decoded_bytes_per_query.{verb}"] = statistics.fmean(decoded)
    if queries:
        out["query.prune_ratio"] = statistics.fmean(prune for _, _, prune in queries)
    for name, values in durations.items():
        if name.startswith("core.compress."):
            algo = name.removeprefix("core.compress.")
            out[f"core.compress_us_per_point.{algo}"] = sum(values) / points[algo] * 1e6
    if "error.evaluate" in durations:
        out["error.evaluate_us_per_point"] = (
            sum(durations["error.evaluate"]) / sum(points.values()) * 1e6
        )
    if "pipeline.run" in durations:
        out["pipeline.overhead_share"] = (
            sum(selfs["pipeline.run"]) / sum(durations["pipeline.run"])
        )
    return out


def request_analysis(span_lists: list[list], drive: Drive, headline: str,
                     routed: bool) -> tuple[dict, dict]:
    """Where the headline open-loop requests' time went, joined to client times by rid.

    Returns the per-layer shares and trace figures, and the report-only
    queueing, router and overlay figures. A request's stages explain the
    part of its server-side span that its child spans cover; the root
    span's own remainder (dispatch, response building) is ``share.serve``.
    """
    by_rid: dict = {}
    for spans in span_lists:
        own = layer_trace.self_times(spans)
        for span in spans:
            if span[5] is not None:
                by_rid.setdefault(span[5], []).append((span, own[span[0]]))
    totals = dict.fromkeys(SHARE_LAYERS, 0.0)
    client_total = 0.0
    servers, waits, explained = [], [], []
    overlay: dict[str, list[float]] = {"window": [], "nearest": []}
    missing = 0
    for request in drive.requests:
        if request.phase != "open" or not request.ok or not request.kind.startswith(headline):
            continue
        spans = by_rid.get(request.rid, [])
        root = next((pair for pair in spans if pair[0][2].startswith("request.")), None)
        if root is None:
            missing += 1
            continue
        server = root[0][4] - root[0][3]
        client = request.done - request.sent
        client_total += client
        servers.append(server)
        waits.append(client - server)
        explained.append(1.0 - root[1] / server)
        totals["wait"] += client - server
        for span, own in spans:
            totals[_layer(span[2])] += own
        verb = request.kind.rsplit("-", 1)[-1]
        if verb in overlay:
            engine = sum(span[4] - span[3] for span, _ in spans
                         if span[2].startswith("query.engine."))
            overlay[verb].append(server - engine)
    layers = {
        **{
            f"share.{layer}": 100.0 * value / client_total if client_total else 0.0
            for layer, value in totals.items()
        },
        "trace.request_ms.p50": percentile(servers, 50) * 1e3 if servers else 0.0,
        "trace.stage_sum_ratio": statistics.fmean(explained) if explained else 0.0,
    }
    report = {
        "serve.queue_wait_ms.p50": percentile(waits, 50) * 1e3,
        "serve.queue_wait_ms.p90": percentile(waits, 90) * 1e3,
        **{f"query.overlay_ms.{verb}": percentile(values, 50) * 1e3
           for verb, values in overlay.items() if values},
        "trace.requests_joined": len(servers),
        "trace.requests_missing": missing,
    }
    if routed:
        # The router forwards the request bytes as they are: the worker's
        # span is the only server-side span, and the rest is the router's.
        report["router.proxy_ms.p50"] = report["serve.queue_wait_ms.p50"]
    return layers, report


def batch_analysis(span_lists: list[list]) -> dict:
    """The batch workload's trace figures: one engine run is one request."""
    (spans,) = span_lists
    own = layer_trace.self_times(spans)
    runs = [(span[4] - span[3], own[span[0]]) for span in spans if span[2] == "pipeline.run"]
    total = sum(duration for duration, _ in runs)
    return {
        **{f"share.{layer}": 0.0 for layer in SHARE_LAYERS},
        "trace.request_ms.p50": percentile([d for d, _ in runs], 50) * 1e3,
        "trace.stage_sum_ratio": 1.0 - sum(s for _, s in runs) / total,
    }


def _stat_sum(stats: dict, path: tuple) -> float:
    """Sum one STATS field over a single server or every shard of a fleet."""
    payloads = list(stats.get("shards", {}).values()) or [stats]
    total = 0.0
    for payload in payloads:
        value = payload
        for key in path:
            value = value.get(key, {}) if isinstance(value, dict) else {}
        total += value if isinstance(value, (int, float)) else 0.0
    return total


def stats_layers(stats: dict) -> dict:
    """Per-layer counts the servers report themselves (STATS)."""
    commits = _stat_sum(stats, ("wal", "commits"))
    records = _stat_sum(stats, ("wal", "committed_records"))
    saved = _stat_sum(stats, ("metrics", "counters", "store_saved_bytes"))
    closes = _stat_sum(stats, ("sessions_flushed",))
    shards = [payload.get("fixes_in", 0) for payload in stats.get("shards", {}).values()]
    skew = max(shards) / statistics.fmean(shards) if shards and sum(shards) else 1.0
    return {
        "wal.commits": commits,
        "wal.records_per_commit": records / commits if commits else 0.0,
        "store.save_bytes_per_close": saved / closes if closes else 0.0,
        "router.shard_skew": skew,
    }


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #


@dataclass
class Pass:
    """One measured pass of a workload: its numbers and its problems."""

    metrics: dict
    details: dict
    generator: dict
    problems: list
    attempted: int
    failed: int
    #: Closed-loop work per second (the trace overhead compares it).
    capacity: float
    drive: Drive | None = None
    #: The batch runner's result line.
    batch: dict | None = None


def preload_trips(name: str, seed: int, scale: Scale) -> list[Trajectory]:
    """The objects a workload's store holds before its server starts."""
    rng = np.random.default_rng([seed, 5])
    if name in ("churn", "churn-sharded"):
        return trips(rng, scale.churn_objects, scale.churn_points, "pre")
    if name == "query-live":
        return trips(rng, scale.live_objects, scale.live_points, "obj")
    return []


def build_preload(name: str, seed: int, scale: Scale, path: Path,
                  shards: int) -> tuple[list[Path], list[TrajectoryStore]]:
    """Write the workload's preloaded store file(s), one per shard.

    A sharded fleet's preload is split with the router's own hash ring
    into the partition files its workers load.
    """
    if shards > 1:
        names = [f"worker-{index}" for index in range(shards)]
        paths = [partition_path(path, worker) for worker in names]
    else:
        names, paths = [None], [path]
    objects = preload_trips(name, seed, scale)
    if not objects:
        return paths, []
    stores = [TrajectoryStore(cell_size_m=2_000.0) for _ in paths]
    ring = HashRing(names) if shards > 1 else None
    for traj in objects:
        index = names.index(ring.node_for(traj.object_id)) if ring else 0
        stores[index].insert(traj)
    for store, store_path in zip(stores, paths):
        store.save(store_path)
    return paths, stores


def _bytes(paths: list[Path]) -> int:
    return sum(path.stat().st_size for path in paths if path.exists())


def serve_command(name: str, store_path: Path, wal_dir: Path, traced: bool) -> list[str]:
    entry = [str(HERE / "traced_serve.py")] if traced else ["-m", "repro"]
    argv = [sys.executable, *entry, "serve", "--port", "0", "--store", str(store_path)]
    if name != "query-live":
        argv += ["--wal", str(wal_dir)]
    if name == "churn-sharded":
        argv += ["--workers", "2"]
    return argv


#: Each server workload's headline request: its latency is the workload's
#: ``latency_p50_ms``/``latency_p90_ms``, and the trace attributes its time.
HEADLINE = {
    "ingest": "append",
    "churn": "close",
    "churn-sharded": "close",
    "query-live": "query",
}


def run_serve_pass(name: str, seed: int, seconds: float, scale: Scale, work: Path,
                   tamper: bool, trace_dir: Path | None) -> Pass:
    """One pass of a server workload: spawn, drive, drain, check."""
    work.mkdir(parents=True)
    store_path = work / "fleet.rsto"
    wal_dir = work / "wal"
    shards = 2 if name == "churn-sharded" else 1
    store_files, preload = build_preload(name, seed, scale, store_path, shards)
    preload_bytes = _bytes(store_files)
    argv = serve_command(name, store_path, wal_dir, trace_dir is not None)
    env = _child_env(trace_dir)
    spawns = 1 if trace_dir is not None else scale.setup_spawns
    setup, program = start_measured(lambda: Program(argv, "serving on ", env), spawns)
    closed_s = seconds * CLOSED_SHARE
    open_s = seconds - closed_s
    # The generator's own garbage collections would stall its schedule.
    gc.disable()
    try:
        if name == "query-live":
            drive = asyncio.run(drive_query_live(program, seed, scale,
                                                 preload[0], closed_s, open_s))
        elif name == "ingest":
            traffics = [IngestTraffic(seed, conn, scale) for conn in range(2)]
            drive = asyncio.run(drive_sessions(program, traffics, scale.ingest_rate,
                                               scale.ingest_nominal, closed_s, open_s))
        else:
            traffics = [ChurnTraffic(seed, conn) for conn in range(2)]
            drive = asyncio.run(drive_sessions(program, traffics, scale.churn_rate,
                                               scale.churn_nominal, closed_s, open_s))
        rss = program.rss_mb()
        code = program.terminate()
    except BaseException:
        program.kill()
        raise
    finally:
        gc.enable()
    problems = []
    if code != 0 or not any(line.startswith("drained:") for line in program.output):
        problems.append(f"server exit {code} without a clean drain: {program.output[-3:]}")
    for schedule in drive.schedules:
        problems.extend(schedule.problems())
    drained = TrajectoryStore.load(store_path, cache_size=1 << 20)
    problems.extend(check_sessions(drive.sessions, drained,
                                   sum(len(store) for store in preload), tamper))
    if drive.verify:
        problems.extend(check_queries(drive.verify, drained, tamper))
    failed_requests = sum(1 for r in drive.requests if not r.ok)
    acked = sum(s.acked for s in drive.sessions)
    stored_bytes = _bytes(store_files) - preload_bytes
    metrics, details, capacity = serve_metrics(name, drive, setup, rss, stored_bytes,
                                               acked)
    return Pass(
        metrics=metrics,
        details=details,
        generator={f"conn{i}": s.summary() for i, s in enumerate(drive.schedules)},
        problems=problems,
        attempted=len(drive.requests),
        failed=failed_requests + len(problems),
        capacity=capacity,
        drive=drive,
    )


def _latencies(requests: list[Request], kind: str) -> list[float]:
    """Open-loop latencies from the due time; failures count as infinite."""
    return [
        (request.done - request.due) if request.ok else math.inf
        for request in requests
        if request.phase == "open" and request.kind.startswith(kind)
    ]


def serve_metrics(name: str, drive: Drive, setup: list[float], rss: float,
                  stored_bytes: int, acked: int) -> tuple[dict, dict, float]:
    start, end = drive.closed_window
    closed = [r for r in drive.requests
              if r.phase == "closed" and r.ok and r.done <= end]
    if name == "query-live":
        capacity = sum(1 for r in closed if r.kind.startswith("query")) / (end - start)
    else:
        capacity = sum(r.n_fixes for r in closed if r.kind == "append") / (end - start)
    headline = _latencies(drive.requests, HEADLINE[name])
    metrics = {
        "setup_s": statistics.median(setup),
        "bytes_per_fix": stored_bytes / acked if acked else 0.0,
        "rss_mb": rss,
    }
    details = {
        "setup_s": {"value": metrics["setup_s"], "unit": "s", "n": len(setup),
                    "samples": setup},
        "latency_p50_ms": {"value": percentile(headline, 50) * 1e3, "unit": "ms",
                           "n": len(headline)},
        "latency_p90_ms": {"value": percentile(headline, 90) * 1e3, "unit": "ms",
                           "n": len(headline)},
        "stored_bytes_per_fix": {"value": metrics["bytes_per_fix"], "unit": "B",
                                 "n": acked},
        "server_rss_mb": {"value": rss, "unit": "MB", "n": 1},
    }
    if name == "query-live":
        details["queries_per_s"] = {"value": capacity, "unit": "1/s", "n": len(closed)}
        kinds = ["append"] + [f"query-{kind}" for kind in QUERY_KINDS]
    else:
        details["fixes_per_s"] = {"value": capacity, "unit": "fix/s", "n": len(closed)}
        kinds = ["append", "close"]
    for kind in kinds:
        values = _latencies(drive.requests, kind)
        if not values:
            continue
        label = kind.replace("-", "_")
        dist = distribution_ms(values)
        for q in ("p50", "p90", "p99", "max"):
            details[f"{label}_{q}_ms"] = {"value": dist[q], "unit": "ms", "n": dist["n"]}
    return metrics, details, capacity


def run_batch_pass(seed: int, seconds: float, scale: Scale, work: Path, tamper: bool,
                   trace_dir: Path | None) -> Pass:
    """The batch workload: BatchEngine in its own process."""
    work.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "batch_runner.py"), "--seed", str(seed),
            "--seconds", str(seconds), "--trips", str(scale.batch_trips)]
    if tamper:
        argv.append("--tamper")
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    env = _child_env()
    setup = []
    spawns = 1 if trace_dir is not None else scale.setup_spawns
    for _ in range(spawns - 1):
        program = Program([*argv, "--setup-only"], "ready", env)
        setup.append(program.start())
        if program.wait(60.0) != 0:
            raise RuntimeError(f"batch set-up failed: {program.output[-3:]}")
    program = Program(argv, "ready", env)
    setup.append(program.start())
    code = program.wait(seconds + 120.0)
    if code != 0:
        raise RuntimeError(f"batch runner exited {code}: {program.output[-5:]}")
    result = json.loads(program.output[-1])
    jobs = result["jobs"]
    times = [job["seconds"] for job in jobs]
    points = sum(job["points"] for job in jobs)
    item_failures = sum(job["failed"] for job in jobs)
    problems = []
    if result["mismatches"]:
        problems.append(f"{result['mismatches']} item(s) differ from the reference run")
    if item_failures:
        problems.append(f"{item_failures} item(s) failed")
    capacity = points / sum(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "bytes_per_fix": result["first_job_bytes"] / result["first_job_points"],
        "rss_mb": result["rss_mb"],
    }
    details = {
        "setup_s": {"value": metrics["setup_s"], "unit": "s", "n": len(setup),
                    "samples": setup},
        "batch_points_per_s": {"value": capacity, "unit": "pt/s", "n": len(jobs)},
        "latency_p50_ms": {"value": percentile(times, 50) * 1e3, "unit": "ms",
                           "n": len(jobs)},
        "latency_p90_ms": {"value": percentile(times, 90) * 1e3, "unit": "ms",
                           "n": len(jobs)},
        "stored_bytes_per_fix": {"value": metrics["bytes_per_fix"], "unit": "B",
                                 "n": result["first_job_points"]},
        "batch_rss_mb": {"value": metrics["rss_mb"], "unit": "MB", "n": 1},
    }
    return Pass(
        metrics=metrics,
        details=details,
        generator={},
        problems=problems,
        attempted=sum(job["items"] for job in jobs),
        failed=item_failures + result["mismatches"],
        capacity=capacity,
        batch=result,
    )


BATCH_ALGOS = tuple(spec.split(":", 1)[0] for spec in BATCH_SPECS)
#: Per-layer metrics a probe measures when the workload's own spans have none.
PROBED = {
    "protocol": ("protocol.decode_us.p50", "protocol.encode_us.p50",
                 "protocol.parse_flat_us_per_fix"),
    "session": ("session.append_batch_us.p50", "session.open_us.p50",
                "session.close_ms.p50"),
    "wal": ("wal.commit_ms.p50", "wal.commit_ms.p90", "wal.fsync_ms.p50"),
    "store": ("store.insert_ms.p50", "store.save_ms.p50", "store.load_s"),
    "query": (
        *(f"query.engine_ms.{verb}" for verb in QUERY_KINDS),
        *(f"query.decoded_bytes_per_query.{verb}" for verb in QUERY_KINDS),
        "query.prune_ratio",
    ),
    "core": (
        *(f"core.compress_us_per_point.{algo}" for algo in BATCH_ALGOS),
        "error.evaluate_us_per_point",
        "pipeline.overhead_share",
    ),
}
#: Probe input is capped at this many fixes, so each probe takes about a second.
PROBE_FIXES = 10_000
#: Queries per verb in the query probe.
PROBE_QUERIES = 30


def probe_inputs(name: str, seed: int, scale: Scale, drive: Drive | None) -> tuple:
    """The workload's own fix streams (capped) and session specs, as probe input."""
    if name == "batch":
        arrays = [np.column_stack([traj.t, traj.xy])
                  for traj in make_fleet(seed, scale.batch_trips)]
        specs = list(INGEST_SPECS)
    else:
        arrays = [session.rows for session in drive.sessions]
        specs = sorted({session.spec for session in drive.sessions})
    streams, total = [], 0
    for rows in arrays:
        if total >= PROBE_FIXES:
            break
        streams.append(rows.tolist())
        total += len(rows)
    return streams, specs


def _recorded(install: str, drive) -> tuple[list, object]:
    """Run ``drive()`` under a fresh span recorder; returns its spans and result."""
    recorder = layer_trace.SpanRecorder()
    getattr(recorder, install)()
    try:
        result = drive()
    finally:
        recorder.uninstall()
    return recorder.spans, result


def probe_layers(name: str, seed: int, scale: Scale, streams: list[list], specs: list[str],
                 work: Path, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer numbers that come from probes, and the layers probed.

    Push, codec and store-size probes always run. A layer of
    :data:`PROBED` is probed when the traced pass left any of its
    metrics unmeasured, and only those metrics are taken from the probe.
    """
    trajectories = []
    for index, rows in enumerate(streams):
        array = np.asarray(rows)
        trajectories.append(Trajectory(array[:, 0], array[:, 1:], f"probe-{index}"))
    out = probes.push_probe(streams, INGEST_SPECS)
    out.update(probes.codec_probe(trajectories))
    sized = trips(np.random.default_rng([seed, 9]), max(probes.STORE_SIZES),
                  scale.churn_points, "size")
    spans, sizes = _recorded("install_serve", lambda: probes.store_size_probe(sized, work))
    out.update(sizes)
    probed = {"store": layer_metrics([spans])}

    def lacks(layer: str) -> bool:
        return any(metric not in traced for metric in PROBED[layer])

    if lacks("protocol"):
        spans, fixes = _recorded("install_serve", lambda: probes.drive_protocol(streams))
        probed["protocol"] = layer_metrics([spans], fixes_parsed=fixes)
    if lacks("session"):
        spans, _ = _recorded("install_serve", lambda: probes.drive_sessions(streams, specs))
        probed["session"] = layer_metrics([spans])
    if lacks("wal"):
        spans, _ = _recorded("install_serve", lambda: probes.drive_wal(streams, work))
        probed["wal"] = layer_metrics([spans])
    if lacks("query"):
        # The query workload's store and queries, built from this seed.
        store = TrajectoryStore(cell_size_m=2_000.0)
        for traj in preload_trips("query-live", seed, scale):
            store.insert(traj)
        traffic = QueryTraffic(seed, 2, store)
        queries = [request.query for _ in range(PROBE_QUERIES * len(QUERY_KINDS))
                   for request in traffic()]
        spans, _ = _recorded("install_serve", lambda: probes.drive_queries(store, queries))
        probed["query"] = layer_metrics([spans])
    if lacks("core"):
        spans, kept = _recorded("install_batch", lambda: probes.drive_batch(trajectories))
        points = sum(len(traj) for traj in trajectories)
        probed["core"] = layer_metrics([spans], points=dict.fromkeys(kept, points))
        out.update({f"core.kept_points.{algo}": count for algo, count in kept.items()})
        out["pipeline.pool_speedup"] = probes.pool_probe(trajectories)
    used = []
    for layer, values in probed.items():
        unmeasured = [metric for metric in PROBED[layer] if metric not in traced]
        out.update({metric: values[metric] for metric in unmeasured})
        if unmeasured:
            used.append(layer)
    return out, used


def run_workload(name: str, seed: int, seconds: float, scale: Scale, work: Path,
                 trace: bool, tamper: bool) -> dict:
    """One workload: untraced, and with ``trace`` a traced pass + probes."""
    run_pass = run_batch_pass if name == "batch" else (
        lambda *args: run_serve_pass(name, *args))
    length = seconds / 2 if trace else seconds
    plain = run_pass(seed, length, scale, work / "plain", tamper, None)
    report = {
        "workload": name,
        "metrics": plain.metrics,
        "details": plain.details,
        "generator": plain.generator,
        "problems": list(plain.problems),
        "attempted": plain.attempted,
        "failed": plain.failed,
    }
    if not trace:
        return report
    trace_dir = work / "spans"
    trace_dir.mkdir(parents=True)
    traced = run_pass(seed, length, scale, work / "traced", tamper, trace_dir)
    report["problems"] += [f"traced pass: {p}" for p in traced.problems]
    report["attempted"] += traced.attempted
    report["failed"] += traced.failed
    span_lists = [dump["spans"] for dump in layer_trace.load_spans(trace_dir)]
    if name == "batch":
        result = traced.batch
        inline = result["untraced_jobs"]
        per_spec = result["jobs"][0]["points"] // len(BATCH_SPECS)
        layers = layer_metrics(
            span_lists, points=dict.fromkeys(BATCH_ALGOS, per_spec * len(result["jobs"])))
        layers.update(batch_analysis(span_lists))
        layers.update({f"core.kept_points.{algo}": count
                       for algo, count in result["kept_points"].items()})
        layers["pipeline.pool_speedup"] = (
            statistics.median(job["seconds"] for job in inline)
            / statistics.median(job["seconds"] for job in plain.batch["jobs"])
        )
        layers.update(stats_layers({}))
        layers["generator.late_share"] = 0.0
        layers["generator.achieved_ratio"] = 1.0
        untraced = sum(job["points"] for job in inline) / sum(job["seconds"] for job in inline)
        extra = {}
    else:
        drive = traced.drive
        fixes = sum(request.n_fixes for request in drive.requests if request.kind == "append")
        layers = layer_metrics(span_lists, fixes_parsed=fixes)
        shares, extra = request_analysis(span_lists, drive, HEADLINE[name],
                                         routed=name == "churn-sharded")
        layers.update(shares)
        layers.update(stats_layers(drive.stats))
        summaries = [schedule.summary() for schedule in plain.drive.schedules]
        layers["generator.late_share"] = 100.0 * statistics.fmean(
            s["late_share"] for s in summaries)
        layers["generator.achieved_ratio"] = min(s["achieved_ratio"] for s in summaries)
        extra["generator.lag_ms.max"] = max(s["lag_ms_max"] for s in summaries)
        untraced = plain.capacity
    layers["trace.overhead_pct"] = 100.0 * (untraced / traced.capacity - 1.0)
    streams, specs = probe_inputs(name, seed, scale, plain.drive)
    probed, report["probed_layers"] = probe_layers(name, seed, scale, streams, specs,
                                                   work, layers)
    layers.update(probed)
    report["layers"] = layers
    report["report_only"] = extra
    report["traced_metrics"] = traced.metrics
    return report


# ---------------------------------------------------------------------- #
# Command line
# ---------------------------------------------------------------------- #


def _print_report(report: dict, trace: bool) -> None:
    name = report["workload"]
    print(f"== {name}")
    for metric, value in report["metrics"].items():
        print(f"  {metric:<40} {value:>14.4f} {END_TO_END_UNITS[metric]}")
    for metric, entry in report["details"].items():
        print(f"  {metric:<40} {entry['value']:>14.4f} {entry['unit']}"
              f"  n={entry['n']}  (not gated)")
    for conn, summary in report["generator"].items():
        print(f"  generator {conn}: " + ", ".join(
            f"{key}={value:.4g}" for key, value in summary.items()))
    if trace:
        for metric, value in report["layers"].items():
            print(f"  {metric:<40} {value:>14.4f} {PER_LAYER_UNITS[metric]}")
        for metric, value in report["report_only"].items():
            print(f"  {metric:<40} {value:>14.4f} {REPORT_UNITS.get(metric, 'count')}")
        print("  probed layers: " + (", ".join(report["probed_layers"]) or "none"))
    print(f"  ops_attempted {report['attempted']}, ops_failed {report['failed']}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def _final_line(reports: list[dict], trace: bool) -> dict:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    key = "layers" if trace else "metrics"
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report['workload']}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": report[key][metric], "unit": unit}
    failed = sum(report["failed"] for report in reports)
    return {
        "correct": failed == 0 and not any(report["problems"] for report in reports),
        "attempted": max(1, sum(report["attempted"] for report in reports)),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the repro system.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced per-layer run")
    parser.add_argument("-o", "--output", default=None,
                        help="write the full report as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and rates, for a quick self-test")
    parser.add_argument("--tamper", action="store_true",
                        help="self-test: perturb every correctness oracle; "
                             "the run must then fail")
    args = parser.parse_args(argv)
    scale = SMOKE if args.smoke else FULL
    names = [args.workload] if args.workload else list(WORKLOADS)
    work = ROOT / ".layered_work" / str(os.getpid())
    work.mkdir(parents=True)
    env = environment(work)
    print("environment: " + json.dumps(env), flush=True)
    reports = []
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, scale, work / name,
                                  bool(args.trace), args.tamper)
            reports.append(report)
            _print_report(report, bool(args.trace))
            sys.stdout.flush()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    final = _final_line(reports, bool(args.trace))
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"environment": env, "seed": args.seed, "seconds": args.seconds,
             "workloads": reports, "result": final}, indent=2, default=str))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
