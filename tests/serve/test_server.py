"""Socket-level tests of the ingestion server: one real TCP round trip
per request against a live :class:`TrajectoryServer`.

The headline guarantee is E2E equivalence — fixes streamed through the
wire produce exactly the batch algorithm's selection — plus the service
behaviours a unit test can't see: global sessions across reconnects,
protocol error responses, pipelined backpressure, persistence and
restart-resume, and the background idle sweeper.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.registry import make_compressor
from repro.exceptions import ServeError
from repro.serve.faults import Fault, FaultInjector
from repro.serve.protocol import MAX_LINE_BYTES, encode_message
from repro.serve.server import TrajectoryServer
from repro.storage.store import TrajectoryStore
from repro.types import Fix

from tests.serve.harness import (
    connected,
    fixes_of,
    run_async,
    running_server,
    stream_session,
)

pytestmark = pytest.mark.serve


class TestEndToEndEquivalence:
    @pytest.mark.parametrize(
        "spec",
        [
            "opw-tr:epsilon=35",
            "opw-sp:epsilon=35,max_speed_error=4",
            "nopw:epsilon=35",
        ],
    )
    def test_served_stream_matches_batch(self, urban_trajectory, spec):
        fixes = fixes_of(urban_trajectory)

        async def scenario():
            async with running_server() as server:
                return await stream_session(
                    server, "urban", spec, fixes, chunk=25
                )

        retained = run_async(scenario())
        indices = make_compressor(spec).compress(urban_trajectory).indices
        expected = [fixes[i] for i in indices]
        # Identical fixes, identical order — JSON floats round-trip exactly.
        assert retained == expected

    def test_session_survives_reconnect(self, zigzag):
        fixes = fixes_of(zigzag)
        half = len(fixes) // 2

        async def scenario():
            async with running_server() as server:
                retained = []
                async with connected(server) as first:
                    await first.open("z", "opw-tr:epsilon=30")
                    retained.extend(await first.append("z", fixes[:half]))
                # The connection is gone; the session is not.
                async with connected(server) as second:
                    retained.extend(await second.append("z", fixes[half:]))
                    summary = await second.close_session("z")
                retained.extend(summary["retained"])
                return retained

        retained = run_async(scenario())
        indices = make_compressor("opw-tr:epsilon=30").compress(zigzag).indices
        assert retained == [fixes[i] for i in indices]


class TestProtocolErrors:
    def test_error_codes_over_the_wire(self, zigzag):
        async def scenario():
            codes = {}
            async with running_server(max_sessions=1) as server:
                async with connected(server) as client:
                    await client.open("a", "opw-tr:epsilon=30")
                    with pytest.raises(ServeError) as err:
                        await client.open("a", "opw-tr:epsilon=30")
                    codes["duplicate"] = err.value.code
                    with pytest.raises(ServeError) as err:
                        await client.open("b", "opw-tr:epsilon=30")
                    codes["rejected"] = err.value.code
                    with pytest.raises(ServeError) as err:
                        await client.append("ghost", [Fix(0.0, 0.0, 0.0)])
                    codes["unknown"] = err.value.code
                    with pytest.raises(ServeError) as err:
                        await client.request(
                            {"op": "append", "session": "a",
                             "fixes": [[0.0, 0.0]]}
                        )
                    codes["bad-fix"] = err.value.code
                    with pytest.raises(ServeError) as err:
                        await client.request({"op": "warp", "session": "a"})
                    codes["unknown-op"] = err.value.code
                    with pytest.raises(ServeError) as err:
                        await client.open("", "opw-tr:epsilon=30")
                    codes["bad-id"] = err.value.code
            return codes

        codes = run_async(scenario())
        assert codes == {
            "duplicate": "duplicate-session",
            "rejected": "rejected",
            "unknown": "unknown-session",
            "bad-fix": "bad-fix",
            "unknown-op": "bad-request",
            "bad-id": "bad-request",
        }

    def test_bad_json_line(self):
        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"{this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return response

        response = run_async(scenario())
        assert response["ok"] is False
        assert response["code"] == "bad-json"

    def test_out_of_order_reports_partial_retained(self):
        async def scenario():
            async with running_server() as server:
                async with connected(server) as client:
                    await client.open("s", "opw-tr:epsilon=10")
                    # Third fix rewinds time: the response must carry the
                    # error AND whatever the first two already decided.
                    response_error = None
                    try:
                        await client.request({
                            "op": "append", "session": "s",
                            "fixes": [[0.0, 0.0, 0.0], [1.0, 5.0, 0.0],
                                      [0.5, 9.0, 0.0]],
                        })
                    except ServeError as exc:
                        response_error = exc
                    # The two good fixes landed; the session still works.
                    retained = await client.append("s", [Fix(2.0, 10.0, 0.0)])
                    summary = await client.close_session("s")
                    return response_error, retained, summary

        error, _, summary = run_async(scenario())
        assert error is not None and error.code == "out-of-order"
        assert summary["stored"]["n_raw_points"] == 3  # bad fix not counted

    def test_oversized_line_is_refused(self):
        async def scenario():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port, limit=MAX_LINE_BYTES
                )
                writer.write(b"x" * (MAX_LINE_BYTES + 100) + b"\n")
                await writer.drain()
                line = await reader.readline()
                response = json.loads(line) if line else None
                eof = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return response, eof

        response, eof = run_async(scenario())
        assert response is not None and response["ok"] is False
        assert response["code"] == "bad-request"
        assert eof == b""  # the server hung up: the stream lost line sync


class TestBackpressure:
    def test_pipelined_requests_all_answered_in_order(self, zigzag):
        """queue_size=1 forces the reader to block on every queued line;
        TCP flow control, not buffering, absorbs a pipelining client."""
        fixes = fixes_of(zigzag)

        async def scenario():
            async with running_server(queue_size=1) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port, limit=MAX_LINE_BYTES
                )
                writer.write(encode_message(
                    {"op": "open", "session": "p", "spec": "opw-tr:epsilon=30"}
                ))
                for fix in fixes:
                    writer.write(encode_message(
                        {"op": "append", "session": "p",
                         "fix": [fix.t, fix.x, fix.y]}
                    ))
                writer.write(encode_message({"op": "close", "session": "p"}))
                await writer.drain()
                responses = [
                    json.loads(await reader.readline())
                    for _ in range(len(fixes) + 2)
                ]
                writer.close()
                await writer.wait_closed()
                return responses

        responses = run_async(scenario())
        assert all(r["ok"] for r in responses)
        assert responses[0]["op"] == "open"
        assert responses[-1]["op"] == "close"
        retained = [
            Fix(*triple)
            for r in responses[1:]
            for triple in r.get("retained", [])
        ]
        indices = make_compressor("opw-tr:epsilon=30").compress(zigzag).indices
        assert retained == [fixes[i] for i in indices]


class TestPersistenceAndStats:
    def test_store_file_round_trip_and_restart_resume(self, zigzag, tmp_path):
        store_path = tmp_path / "fleet.rsto"
        fixes = fixes_of(zigzag)

        async def first_run():
            async with running_server(
                store_path=store_path, durable=False
            ) as server:
                await stream_session(
                    server, "z", "opw-tr:epsilon=30", fixes, chunk=5
                )

        async def second_run():
            async with running_server(
                store_path=store_path, durable=False
            ) as server:
                async with connected(server) as client:
                    flush = await client.flush()
                    stats = await client.stats()
            return flush, stats

        run_async(first_run())
        indices = make_compressor("opw-tr:epsilon=30").compress(zigzag).indices
        stored = TrajectoryStore.load(store_path).get("z")
        assert list(stored.t) == [fixes[i].t for i in indices]

        flush, stats = run_async(second_run())  # restart resumes the data
        assert flush["path"] == str(store_path)
        assert flush["n_objects"] == 1
        assert stats["stored_objects"] == 1

    def test_stats_verb_reports_every_lifecycle_counter(self, zigzag):
        """Drive opens, a rejection, an eviction and a flush, then check
        each shows up in the ``stats`` payload."""
        fixes = fixes_of(zigzag)

        async def scenario():
            async with running_server(
                max_sessions=2, idle_timeout_s=0.05, sweep_interval_s=0.02
            ) as server:
                async with connected(server) as client:
                    await client.open("kept", "opw-tr:epsilon=30")
                    await client.open("idle", "opw-tr:epsilon=30")
                    await client.append("idle", fixes[:4])
                    with pytest.raises(ServeError) as err:
                        await client.open("extra", "opw-tr:epsilon=30")
                    assert err.value.code == "rejected"
                    live_before = (await client.stats())["live_sessions"]
                    # Only "idle" has data; keep "kept" warm while the
                    # sweeper takes the idle one.
                    for round_no in range(10):
                        await client.append(
                            "kept", [Fix(float(round_no), 0.0, 0.0)]
                        )
                        await asyncio.sleep(0.03)
                        if "idle" not in server.manager:
                            break
                    await client.append("kept", fixes[-2:])  # later timestamps
                    await client.close_session("kept")
                    stats = await client.stats()
                return live_before, stats

        live_before, stats = run_async(scenario())
        assert live_before == 2
        assert stats["live_sessions"] == 0
        assert stats["sessions_opened"] == 2
        assert stats["sessions_rejected"] == 1
        assert stats["sessions_evicted"] == 1
        assert stats["sessions_flushed"] == 2  # the evicted one + the close
        assert stats["stored_objects"] == 2
        assert stats["protocol_version"] == 3
        assert stats["connections_opened"] >= 1
        assert stats["uptime_s"] >= 0.0
        assert stats["append_latency_ms"]["count"] > 0


class TestLocks:
    def test_a_server_that_fails_to_open_releases_its_locks(self, tmp_path):
        """A setting the session manager refuses is found after both the
        store and the WAL locks are taken: the failed server releases
        them, even while its exception is still held, so a retry on the
        same paths opens."""
        paths = {"store_path": tmp_path / "fleet.rsto", "wal_dir": tmp_path / "wal"}
        with pytest.raises(ValueError, match="max_sessions") as failure:
            TrajectoryServer(**paths, max_sessions=0, durable=False)
        retry = TrajectoryServer(**paths, durable=False)
        assert failure.value is not None
        retry.close()


class TestStatsObservability:
    def test_stats_carries_the_live_metrics_registry(self, zigzag, tmp_path):
        """STATS now exposes the full obs registry: counters, gauges,
        timers and histograms — including storage flush metrics — and
        the payload renders as Prometheus text."""
        from repro.obs import render_prometheus

        fixes = fixes_of(zigzag)
        store_path = tmp_path / "obs.rsto"

        async def scenario():
            async with running_server(
                store_path=store_path, durable=False
            ) as server:
                await stream_session(
                    server, "obj-a", "opw-tr:epsilon=30", fixes, chunk=5
                )
                async with connected(server) as client:
                    return await client.stats()

        stats = run_async(scenario())
        metrics = stats["metrics"]
        assert set(metrics) == {"counters", "gauges", "timers", "histograms"}
        assert metrics["counters"]["fixes_in"] == len(fixes)
        assert metrics["counters"]["sessions_flushed"] == 1
        assert metrics["counters"]["fixes_flushed"] > 0
        assert metrics["counters"]["flushed_bytes"] > 0
        # The server's registry is threaded into its TrajectoryStore.
        assert metrics["counters"]["store_saves"] >= 1
        assert metrics["counters"]["store_saved_bytes"] > 0
        assert metrics["timers"]["flush_s"]["count"] == 1
        hist = metrics["histograms"]["append_latency_ms"]
        assert hist["count"] == stats["append_latency_ms"]["count"]
        assert sum(b["count"] for b in hist["buckets"]) + hist["overflow"] \
            == hist["count"]
        # Idle server: every queued line was consumed.
        assert stats["queue_depth"] == 0.0
        text = render_prometheus(metrics)
        assert "repro_fixes_in_total" in text
        assert 'repro_append_latency_ms_bucket{le="+Inf"}' in text

    def test_queue_depth_gauge_returns_to_zero_after_bursts(self, zigzag):
        fixes = fixes_of(zigzag)

        async def scenario():
            async with running_server() as server:
                async with connected(server) as client:
                    await client.open("burst", "opw-tr:epsilon=30")
                    for start in range(0, len(fixes), 3):
                        await client.append("burst", fixes[start:start + 3])
                    return await client.stats()

        stats = run_async(scenario())
        assert stats["queue_depth"] == 0.0
        assert stats["metrics"]["gauges"]["queue_depth"] == 0.0


class TestRequestsFailed:
    """``requests_failed`` counts every ``ok: false`` reply exactly once."""

    def test_each_refused_line_counts(self):
        server = TrajectoryServer()
        try:
            lines = [
                encode_message({"op": "warp"}),
                b"{this is not json\n",
                encode_message({"op": "append", "session": "ghost",
                                "fix": [0.0, 0.0, 0.0]}),
                encode_message({"op": "open", "session": "a",
                                "spec": "opw-tr:epsilon=30"}),
                encode_message({"op": "append", "session": "a", "seq": 3,
                                "fix": [0.0, 0.0, 0.0]}),
                encode_message({"op": "close", "session": "ghost"}),
            ]
            answers = [server._handle_line(line)["ok"] for line in lines]
            assert answers == [False, False, False, True, False, False]
            assert server.stats()["requests_failed"] == 5
        finally:
            server.close()

    def test_oversize_and_wal_failure_replies_count_once(self, tmp_path):
        faults = FaultInjector().set(
            "wal.fsync",
            Fault(at=2, error=OSError("injected fsync failure"), once=False),
        )

        async def exchange(server, lines):
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=MAX_LINE_BYTES
            )
            replies = []
            for line in lines:
                writer.write(line)
                await writer.drain()
                reply = await reader.readline()
                if reply:
                    replies.append(json.loads(reply))
            writer.close()
            await writer.wait_closed()
            return replies

        async def scenario():
            async with running_server(wal_dir=tmp_path / "wal", faults=faults) as server:
                replies = await exchange(server, [b"x" * (MAX_LINE_BYTES + 100) + b"\n"])
                replies += await exchange(server, [
                    encode_message({"op": "open", "session": "a",
                                    "spec": "opw-tr:epsilon=30"}),
                    encode_message({"op": "append", "session": "a", "seq": 1,
                                    "fix": [0.0, 0.0, 0.0]}),
                    encode_message({"op": "append", "session": "a", "seq": 2,
                                    "fix": [1.0, 5.0, 0.0]}),
                ])
                return replies, server.stats()["requests_failed"]

        replies, failed = run_async(scenario())
        # The oversize reply, the acknowledgement whose fsync failed and
        # the append refused by the failed log; the open succeeded.
        codes = [reply.get("code") for reply in replies]
        assert codes == ["bad-request", None, "wal-failure", "wal-failure"]
        assert failed == 3


class TestMidBatchDisconnect:
    def test_socket_death_between_frames_keeps_the_applied_prefix(self):
        """A connection dying mid-stream loses frames, never applied state.

        The client fires one complete append frame plus the first half
        of a second (no newline) and drops the socket. The complete
        frame must be applied; the torn frame must vanish without
        desynchronising the session, and a reconnect resumes exactly
        after the applied prefix.
        """
        from repro.serve.protocol import encode_message

        fixes = [Fix(float(i), float(i * 3 % 7), 0.0) for i in range(20)]

        async def scenario():
            async with running_server() as server:
                async with connected(server) as client:
                    await client.open("s", "opw-tr:epsilon=10")
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                whole = encode_message({
                    "op": "append", "session": "s", "seq": 1,
                    "fixes_flat": [v for f in fixes[:10] for v in f],
                })
                torn = encode_message({
                    "op": "append", "session": "s", "seq": 2,
                    "fixes_flat": [v for f in fixes[10:] for v in f],
                })
                writer.write(whole + torn[: len(torn) // 2])  # no newline
                await writer.drain()
                # The complete frame's response proves it was applied.
                response = json.loads(await reader.readline())
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

                async with connected(server) as again:
                    resumed = await again.resume("s")
                    # Torn frame gone: seq 2 is still free and appending
                    # it now continues the stream seamlessly.
                    retained = await again.append("s", fixes[10:], seq=2)
                    summary = await again.close_session("s")
                return response, resumed, retained, summary

        response, resumed, retained, summary = run_async(scenario())
        assert response["ok"] is True and response["seq"] == 1
        assert resumed["seq"] == 1
        assert resumed["fixes_in"] == 10  # the torn frame applied nothing
        assert summary["stored"]["n_raw_points"] == 20
