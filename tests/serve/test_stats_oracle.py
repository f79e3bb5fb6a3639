"""Golden oracle for the ``stats`` payload of a server and of a fleet.

Two in-process :class:`TrajectoryServer`\\ s see a fixed mix of traffic,
one request line at a time through their dispatch (no sockets) and with
an injected clock:

* opens under a threshold and a budget spec, a duplicate-``seq`` append
  and a batch with an out-of-order fix in its middle;
* a rejected open, a degraded admission (``degrade_budget_floor``), an
  idle eviction and closes;
* one query of each kind, and an unknown op;
* the second server journals to a WAL (so ``wal`` is present; each
  line passes the server's durability barrier) and persists a store
  file.

Their ``stats`` payloads, and the fleet payloads that
``ServeRouter.stats`` merges from them (once with both shards, once
with one shard unavailable), must equal
``tests/data/golden/stats_oracle.json`` by value. Only values that
measure time are normalised (``uptime_s``, timer totals, means and
maxima, the sums, extrema and buckets of latency histograms; every
count is kept), and the WAL directory path. Regenerate with
``pytest --regen-golden`` only when a change is meant to alter what
``stats`` reports.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.serve.pool import WorkerPool
from repro.serve.protocol import encode_message
from repro.serve.router import ServeRouter
from repro.serve.server import TrajectoryServer

ORACLE_PATH = Path(__file__).resolve().parents[1] / "data" / "golden" / "stats_oracle.json"

#: What a normalised time measurement or path reads as.
TIME, WAL_DIR = "<time>", "<wal-dir>"
TIMER_KEYS = {"count", "total_s", "mean_s", "max_s"}
HISTOGRAM_KEYS = {"count", "sum", "min", "max", "mean", "buckets", "overflow"}

PAYLOADS = ("server", "wal-server", "fleet", "fleet-one-unavailable")


class FakeClock:
    def __init__(self) -> None:
        self.now = 1_000.0

    def __call__(self) -> float:
        return self.now


def zigzag(t0: float, n: int, x0: float = 0.0) -> list[list[float]]:
    """``n`` wire fixes 10 s apart that turn often enough to be retained."""
    return [
        [t0 + 10.0 * i, x0 + 40.0 * i, 60.0 * (i % 3) - 35.0 * (i % 2)]
        for i in range(n)
    ]


def send(server: TrajectoryServer, message: dict) -> dict:
    """One request line through the dispatch, then the durability barrier."""
    return asyncio.run(server._durable(server._handle_line(encode_message(message))))


QUERIES = (
    {"op": "query", "query": "position", "object": "a1", "t": 1_045.0},
    {"op": "query", "query": "window", "t0": 0.0, "t1": 5_000.0,
     "bbox": [-50.0, -50.0, 400.0, 200.0], "mode": "possibly"},
    {"op": "query", "query": "nearest", "x": 100.0, "y": 20.0, "t": 1_050.0, "k": 2},
)


def drive_server(clock: FakeClock) -> TrajectoryServer:
    """No WAL: threshold and budget sessions, a reject, an idle eviction."""
    server = TrajectoryServer(
        max_sessions=3, idle_timeout_s=10.0, shard="worker-0", clock=clock
    )
    send(server, {"op": "open", "session": "a1", "spec": "opw-tr:epsilon=25"})
    send(server, {"op": "append", "session": "a1", "seq": 1,
                  "fixes": zigzag(1_000.0, 8)})
    send(server, {"op": "append", "session": "a1", "seq": 1,
                  "fixes": zigzag(1_000.0, 8)})  # duplicate seq
    batch = zigzag(1_080.0, 6, x0=320.0)
    batch[3][0] = 1_000.0  # out of order mid-batch
    send(server, {"op": "append", "session": "a1", "seq": 2, "fixes": batch})
    send(server, {"op": "open", "session": "a2", "spec": "squish:budget=5"})
    send(server, {"op": "append", "session": "a2", "seq": 1,
                  "fixes_flat": sum(zigzag(1_000.0, 12, x0=-200.0), [])})
    send(server, {"op": "close", "session": "a1"})
    send(server, {"op": "open", "session": "a3", "spec": "opw-tr:epsilon=25"})
    send(server, {"op": "append", "session": "a3", "fixes": zigzag(1_010.0, 4)})
    send(server, {"op": "open", "session": "a4", "spec": "squish:budget=5"})
    send(server, {"op": "open", "session": "a5", "spec": "opw-tr:epsilon=25"})  # rejected
    clock.now += 11.0
    send(server, {"op": "append", "session": "a4", "fixes": zigzag(1_000.0, 3)})
    # At the limit with a2 and a3 idle: the open evicts (and flushes) them.
    send(server, {"op": "open", "session": "a6", "spec": "opw-tr:epsilon=25"})
    for query in QUERIES:
        send(server, query)
    send(server, {"op": "bogus"})
    return server


def drive_wal_server(clock: FakeClock, base: Path) -> TrajectoryServer:
    """WAL and store file: a degraded admission renegotiates budgets."""
    server = TrajectoryServer(
        max_sessions=2, idle_timeout_s=10.0, degrade_budget_floor=4,
        wal_dir=base / "wal", store_path=base / "wal-server.rsto",
        durable=False, shard="worker-1", clock=clock,
    )
    send(server, {"op": "open", "session": "b1", "spec": "squish:budget=12"})
    send(server, {"op": "append", "session": "b1", "seq": 1,
                  "fixes": zigzag(1_000.0, 16, x0=50.0)})
    send(server, {"op": "open", "session": "b2", "spec": "opw-tr:epsilon=25"})
    send(server, {"op": "append", "session": "b2", "seq": 1,
                  "fixes": zigzag(1_000.0, 10, x0=80.0)})
    # At the limit, nothing idle: b1's budget shrinks and b3 is admitted.
    send(server, {"op": "open", "session": "b3", "spec": "sttrace:budget=8"})
    send(server, {"op": "append", "session": "b1", "seq": 2,
                  "fixes": zigzag(1_160.0, 4, x0=700.0)})
    send(server, {"op": "append", "session": "b3", "fixes": zigzag(1_000.0, 9)})
    send(server, {"op": "close", "session": "b1"})
    send(server, {"op": "close", "session": "b2"})
    for query in QUERIES:
        send(server, {**query, "object": "b1"} if "object" in query else query)
    send(server, {"op": "bogus"})
    return server


def wire_stats(server: TrajectoryServer) -> dict:
    """The ``stats`` verb's payload as a client decodes it."""
    return json.loads(encode_message(send(server, {"op": "stats"})))["stats"]


def normalised(value: object, key: str = "") -> object:
    """``value`` with time measurements and the WAL directory replaced."""
    if isinstance(value, list):
        return [normalised(item) for item in value]
    if not isinstance(value, dict):
        if key == "uptime_s" and value is not None:
            return TIME
        if key == "directory":
            return WAL_DIR
        return value
    if set(value) == TIMER_KEYS:
        return {**value, "total_s": TIME, "mean_s": TIME, "max_s": TIME}
    if set(value) == HISTOGRAM_KEYS and key.endswith("_ms"):
        return {
            "count": value["count"], "sum": TIME, "min": TIME, "max": TIME,
            "mean": TIME, "overflow": TIME,
            "buckets": [{"le": bucket["le"], "count": TIME}
                        for bucket in value["buckets"]],
        }
    return {name: normalised(item, name) for name, item in value.items()}


@pytest.fixture(scope="module")
def payloads(tmp_path_factory) -> dict:
    clock = FakeClock()
    server = drive_server(clock)
    wal_server = drive_wal_server(clock, tmp_path_factory.mktemp("stats-oracle"))
    try:
        shards = {"worker-0": wire_stats(server), "worker-1": wire_stats(wal_server)}
    finally:
        server.close()
        wal_server.close()
    fleet = ServeRouter(WorkerPool(2)).stats(shards, [])
    partial = ServeRouter(WorkerPool(2)).stats({"worker-0": shards["worker-0"]},
                                               ["worker-1"])
    raw = {
        "server": shards["worker-0"],
        "wal-server": shards["worker-1"],
        "fleet": json.loads(encode_message(fleet)),
        "fleet-one-unavailable": json.loads(encode_message(partial)),
    }
    return {name: normalised(payload) for name, payload in raw.items()}


def test_the_mix_reaches_what_it_claims(payloads):
    server, wal_server = payloads["server"], payloads["wal-server"]
    assert server["sessions_rejected"] == 1
    assert server["sessions_evicted"] == 2
    assert server["fixes_in_by_algorithm"].keys() == {"opw-tr", "squish"}
    assert server["queries"] == 3 and wal_server["queries"] == 3
    assert wal_server["sessions_admitted_degraded"] == 1
    assert wal_server["budget_renegotiations"] >= 1
    assert wal_server["fixes_evicted"] > 0
    assert wal_server["wal"]["commits"] > 0
    assert payloads["fleet"]["fixes_in"] == server["fixes_in"] + wal_server["fixes_in"]
    assert payloads["fleet-one-unavailable"]["shards_unavailable"] == ["worker-1"]


@pytest.mark.parametrize("name", PAYLOADS)
def test_payload_matches_the_golden_file(payloads, name, regen_golden):
    if regen_golden:
        ORACLE_PATH.write_text(json.dumps(payloads, indent=1, sort_keys=True) + "\n")
    assert payloads[name] == json.loads(ORACLE_PATH.read_text())[name]
