"""Budget compressors through the serve tier.

The pieces PR-level acceptance pins: append acknowledgements carry
evictions, WAL recovery replays *through* evictions and renegotiations
bit-identically, degraded admission renegotiates live sessions down
instead of rejecting, and the wire protocol exposes all of it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.serve.session import SessionManager
from repro.serve.wal import WalWriter, scan_wal
from repro.storage.store import TrajectoryStore
from repro.types import Fix

from tests.serve.harness import connected, run_async, running_server


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def make_manager(clock: FakeClock, **kwargs) -> SessionManager:
    kwargs.setdefault("max_sessions", 4)
    kwargs.setdefault("idle_timeout_s", 10.0)
    return SessionManager(TrajectoryStore(), clock=clock, **kwargs)


def walk(n: int, seed: int = 5) -> list[Fix]:
    rng = np.random.default_rng(seed)
    xy = np.cumsum(rng.normal(0.0, 10.0, size=(n, 2)), axis=0)
    return [Fix(float(i), float(xy[i, 0]), float(xy[i, 1])) for i in range(n)]


def compressor_state(session, eviction_logs) -> tuple:
    """Everything that defines a budget session's compressor state."""
    comp = session.compressor
    return (
        comp.budget,
        comp.buffer_snapshot(),
        comp.n_evicted,
        eviction_logs.log(comp),
    )


class TestBudgetSessions:
    def test_acknowledgements_carry_evictions(self, clock):
        manager = make_manager(clock)
        manager.open("s", "squish:budget=5")
        points = walk(20)
        net: dict[float, Fix] = {}
        for start in range(0, 20, 4):
            outcome = manager.append_batch("s", points[start : start + 4])
            for fix in outcome.retained:
                net[fix.t] = fix
            for fix in outcome.evicted:
                del net[fix.t]
            assert len(net) <= 5
        session = manager.get("s")
        assert session.n_evicted == 15
        # The client-side net state equals the session's builder.
        assert sorted(net) == list(session.builder.build().t)

    def test_stored_record_respects_the_budget(self, clock):
        manager = make_manager(clock)
        manager.open("s", "sttrace:budget=6")
        manager.append_many("s", walk(40))
        record, _ = manager.close("s")
        assert record.n_stored_points <= 6

    def test_eviction_counters_by_algorithm(self, clock):
        manager = make_manager(clock)
        manager.open("a", "squish:budget=4")
        manager.open("b", "opw-tr:epsilon=30")
        manager.append_many("a", walk(12))
        manager.append_many("b", walk(12, seed=6))
        stats = manager.stats()
        assert stats["fixes_evicted"] == 8
        assert stats["fixes_evicted_by_algorithm"] == {"squish": 8}

    def test_duplicate_replay_returns_cached_evictions(self, clock):
        manager = make_manager(clock)
        manager.open("s", "squish:budget=4")
        points = walk(10)
        first = manager.append_batch("s", points, seq=1)
        assert first.evicted
        again = manager.append_batch("s", points, seq=1)
        assert again.duplicate is True
        assert again.evicted == first.evicted
        assert again.retained == first.retained


class TestRenegotiation:
    def test_renegotiate_shrinks_and_reports(self, clock):
        manager = make_manager(clock)
        manager.open("s", "squish:budget=20")
        manager.append_many("s", walk(20))
        evicted = manager.renegotiate_session("s", 8)
        assert len(evicted) == 12
        session = manager.get("s")
        assert session.budget == 8
        assert session.budget_renegotiations == 1
        assert len(session.builder) == 8
        # The evictions the client has not seen ride the next ack.
        outcome = manager.append_batch("s", walk(22, seed=9)[20:])
        assert set(evicted) <= set(outcome.evicted)
        assert not manager.get("s").unreported_evictions

    def test_threshold_sessions_cannot_renegotiate(self, clock):
        manager = make_manager(clock)
        manager.open("t", "opw-tr:epsilon=30")
        with pytest.raises(ServeError) as err:
            manager.renegotiate_session("t", 10)
        assert err.value.code == "bad-request"

    def test_renegotiate_is_wal_logged_before_apply(self, clock, tmp_path):
        wal = WalWriter(tmp_path / "wal", durable=False)
        manager = make_manager(clock, wal=wal)
        manager.open("s", "squish:budget=10")
        manager.append_many("s", walk(10))
        manager.renegotiate_session("s", 4)
        wal.commit_sync()
        wal.close()
        ops = scan_wal(tmp_path / "wal").live_sessions["s"].ops
        assert ("r", 4) in ops
        # Ordering preserved: the renegotiation sits after the append.
        assert [op[0] for op in ops] == ["a", "r"]


class TestDegradedAdmission:
    def test_over_limit_open_renegotiates_instead_of_rejecting(self, clock):
        manager = make_manager(
            clock, max_sessions=2, degrade_budget_floor=2,
        )
        manager.open("a", "squish:budget=20")
        manager.open("b", "sttrace:budget=20")
        manager.append_many("a", walk(20))
        manager.append_many("b", walk(20, seed=6))
        session = manager.open("c", "squish:budget=20")
        assert session is manager.get("c")
        assert manager.get("a").budget == 10
        assert manager.get("b").budget == 10
        stats = manager.stats()
        assert stats["sessions_admitted_degraded"] == 1
        assert stats["sessions_renegotiated"] == 2
        assert stats["budget_renegotiations"] == 2

    def test_budgets_never_fall_below_the_floor(self, clock):
        manager = make_manager(
            clock, max_sessions=1, degrade_budget_floor=5,
            degrade_budget_factor=0.5,
        )
        manager.open("a", "squish:budget=8")
        manager.open("b", "squish:budget=8")
        assert manager.get("a").budget == 5  # not 4: clamped to the floor

    def test_without_the_policy_opens_are_rejected(self, clock):
        manager = make_manager(clock, max_sessions=1)
        manager.open("a", "squish:budget=20")
        with pytest.raises(ServeError) as err:
            manager.open("b", "squish:budget=20")
        assert err.value.code == "rejected"

    def test_threshold_only_fleet_still_rejects(self, clock):
        manager = make_manager(
            clock, max_sessions=1, degrade_budget_floor=2,
        )
        manager.open("a", "opw-tr:epsilon=30")
        with pytest.raises(ServeError) as err:
            manager.open("b", "opw-tr:epsilon=30")
        assert err.value.code == "rejected"

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            make_manager(clock, degrade_budget_floor=1)
        with pytest.raises(ValueError):
            make_manager(clock, degrade_budget_floor=4, degrade_budget_factor=1.5)


class TestWalReplayThroughEviction:
    def test_recovery_replays_evictions_bit_identically(
        self, clock, tmp_path, eviction_logs
    ):
        points = walk(30)
        wal = WalWriter(tmp_path / "wal", durable=False)
        manager = make_manager(clock, wal=wal)
        manager.open("s", "squish:budget=6")
        manager.append_many("s", points)
        pre_crash = compressor_state(manager.get("s"), eviction_logs)
        pre_builder = list(manager.get("s").builder.build().t)
        wal.commit_sync()
        wal.close()  # crash: nothing flushed

        recovered = SessionManager(
            TrajectoryStore(), clock=clock,
            wal=WalWriter(tmp_path / "wal", durable=False),
        )
        outcome = recovered.recover()
        assert outcome["sessions"] == 1
        session = recovered.get("s")
        assert session.recovered is True
        assert compressor_state(session, eviction_logs) == pre_crash
        assert list(session.builder.build().t) == pre_builder
        assert session.n_evicted == 24

    def test_recovery_replays_through_a_renegotiation(
        self, clock, tmp_path, eviction_logs
    ):
        points = walk(40)
        wal = WalWriter(tmp_path / "wal", durable=False)
        manager = make_manager(clock, wal=wal)
        manager.open("s", "sttrace:budget=20")
        manager.append_batch("s", points[:20])
        manager.renegotiate_session("s", 8)
        manager.append_batch("s", points[20:])
        pre_crash = compressor_state(manager.get("s"), eviction_logs)
        wal.commit_sync()
        wal.close()

        recovered = SessionManager(
            TrajectoryStore(), clock=clock,
            wal=WalWriter(tmp_path / "wal", durable=False),
        )
        recovered.recover()
        session = recovered.get("s")
        assert compressor_state(session, eviction_logs) == pre_crash
        assert session.budget == 8
        # Continuing after recovery matches an uninterrupted run.
        more = [Fix(40.0 + float(i), float(i), 0.0) for i in range(5)]
        recovered.append_batch("s", more)
        uninterrupted = make_manager(clock)
        uninterrupted.open("s", "sttrace:budget=20")
        uninterrupted.append_batch("s", points[:20])
        uninterrupted.renegotiate_session("s", 8)
        uninterrupted.append_batch("s", points[20:])
        uninterrupted.append_batch("s", more)
        assert compressor_state(session, eviction_logs) == compressor_state(
            uninterrupted.get("s"), eviction_logs
        )

    def test_unreported_evictions_survive_recovery(self, clock, tmp_path):
        """At-least-once: renegotiation evictions not yet acked to the
        client are re-queued by replay and ride the next ack."""
        wal = WalWriter(tmp_path / "wal", durable=False)
        manager = make_manager(clock, wal=wal)
        manager.open("s", "squish:budget=10")
        manager.append_many("s", walk(10))
        evicted = manager.renegotiate_session("s", 4)
        assert len(evicted) == 6
        wal.commit_sync()
        wal.close()  # crash before any append acked the evictions

        recovered = SessionManager(
            TrajectoryStore(), clock=clock,
            wal=WalWriter(tmp_path / "wal", durable=False),
        )
        recovered.recover()
        outcome = recovered.append_batch(
            "s", [Fix(10.0, 0.0, 0.0)]
        )
        assert set(evicted) <= set(outcome.evicted)


@pytest.mark.serve
class TestBudgetOverTheWire:
    def test_append_response_carries_evictions(self):
        points = walk(30)

        async def scenario():
            async with running_server() as server:
                async with connected(server) as client:
                    await client.open("w", "squish:budget=5")
                    net: dict[float, Fix] = {}
                    for start in range(0, 30, 5):
                        kept, gone = await client.append_events(
                            "w", points[start : start + 5]
                        )
                        for fix in kept:
                            net[fix.t] = fix
                        for fix in gone:
                            del net[fix.t]
                        assert len(net) <= 5
                    summary = await client.close_session("w")
                    return net, summary

        net, summary = run_async(scenario())
        assert len(net) == 5
        assert summary["stored"]["n_stored_points"] == 5
        assert summary["stored"]["n_raw_points"] == 30

    def test_threshold_responses_stay_unchanged(self):
        """No ``evicted`` key on threshold-compressor responses — the
        wire format of existing clients is untouched."""
        points = walk(12)

        async def scenario():
            async with running_server() as server:
                async with connected(server) as client:
                    await client.open("t", "opw-tr:epsilon=30")
                    response = await client.request(
                        {
                            "op": "append",
                            "session": "t",
                            "fixes": [[f.t, f.x, f.y] for f in points],
                        }
                    )
                    return response

        response = run_async(scenario())
        assert "evicted" not in response
        assert "n_evicted" not in response

    def test_resume_reports_the_budget(self):
        points = walk(20)

        async def scenario():
            async with running_server() as server:
                async with connected(server) as first:
                    await first.open("r", "sttrace:budget=6")
                    await first.append("r", points[:10])
                async with connected(server) as second:
                    return await second.resume("r")

        resumed = run_async(scenario())
        assert resumed["budget"] == 6
