"""SessionManager unit tests: admission, LRU eviction, flush, counters.

These run entirely in-process with an injected fake clock — no sockets,
no sleeps — so the resource policies (admission control, idle eviction,
flush-on-evict) are tested deterministically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OPWTR
from repro.exceptions import ServeError
from repro.query.summaries import build_summary
from repro.serve.session import SessionManager
from repro.storage.store import TrajectoryStore
from repro.streaming import available_online_compressors, make_online_compressor
from repro.streaming.base import partition_events
from repro.trajectory import Trajectory
from repro.types import Fix

from tests.serve.harness import fixes_of


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


class TestLifecycle:
    def test_streamed_close_matches_batch(self, clock, zigzag):
        manager = make_manager(clock)
        manager.open("z", "opw-tr:epsilon=30")
        retained = []
        for fix in fixes_of(zigzag):
            retained.extend(manager.append("z", fix))
        record, tail = manager.close("z")
        retained.extend(tail)

        expected = zigzag.t[OPWTR(epsilon=30.0).compress(zigzag).indices]
        assert [f.t for f in retained] == list(expected)
        assert record is not None
        assert record.n_raw_points == len(zigzag)
        assert record.n_stored_points == len(expected)
        # The compressor's epsilon plus the codec's quantization slack.
        assert 30.0 <= record.sync_error_bound_m < 30.1
        assert list(manager.store.get("z").t) == [f.t for f in retained]
        assert "z" not in manager

    def test_close_without_fixes_stores_nothing(self, clock):
        manager = make_manager(clock)
        manager.open("empty", "nopw:epsilon=5")
        record, tail = manager.close("empty")
        assert record is None
        assert tail == []
        assert len(manager.store) == 0
        assert manager.stats()["sessions_flushed"] == 0

    def test_unknown_session(self, clock):
        manager = make_manager(clock)
        with pytest.raises(ServeError) as err:
            manager.append("ghost", Fix(0.0, 0.0, 0.0))
        assert err.value.code == "unknown-session"
        with pytest.raises(ServeError):
            manager.close("ghost")

    def test_out_of_order_keeps_session_usable(self, clock):
        manager = make_manager(clock)
        manager.open("s", "opw-tr:epsilon=10")
        manager.append("s", Fix(5.0, 0.0, 0.0))
        with pytest.raises(ServeError) as err:
            manager.append("s", Fix(5.0, 1.0, 1.0))  # not strictly later
        assert err.value.code == "out-of-order"
        # The rejected fix left no trace: the session keeps accepting.
        manager.append("s", Fix(6.0, 1.0, 1.0))
        record, _ = manager.close("s")
        assert record.n_raw_points == 2


class TestOpenValidation:
    @pytest.mark.parametrize("bad_id", [None, "", 7, ["x"]])
    def test_bad_session_id(self, clock, bad_id):
        manager = make_manager(clock)
        with pytest.raises(ServeError) as err:
            manager.open(bad_id, "nopw:epsilon=5")
        assert err.value.code == "bad-request"

    @pytest.mark.parametrize("bad_spec", [None, "", 3.5])
    def test_bad_spec_type(self, clock, bad_spec):
        manager = make_manager(clock)
        with pytest.raises(ServeError) as err:
            manager.open("s", bad_spec)
        assert err.value.code == "bad-request"

    @pytest.mark.parametrize(
        "spec", ["td-tr:epsilon=5", "no-such-algo:epsilon=5", "nopw", "nopw:bogus=1"]
    )
    def test_unusable_spec(self, clock, spec):
        manager = make_manager(clock)
        with pytest.raises(ServeError) as err:
            manager.open("s", spec)
        assert err.value.code == "bad-spec"
        assert "s" not in manager  # nothing half-admitted

    def test_duplicate_session(self, clock):
        manager = make_manager(clock)
        manager.open("dup", "nopw:epsilon=5")
        with pytest.raises(ServeError) as err:
            manager.open("dup", "nopw:epsilon=5")
        assert err.value.code == "duplicate-session"


class TestAdmissionAndEviction:
    def test_rejects_when_full(self, clock):
        manager = make_manager(clock, max_sessions=2)
        manager.open("a", "nopw:epsilon=5")
        manager.open("b", "nopw:epsilon=5")
        with pytest.raises(ServeError) as err:
            manager.open("c", "nopw:epsilon=5")
        assert err.value.code == "rejected"
        assert manager.stats()["sessions_rejected"] == 1
        assert len(manager) == 2

    def test_full_open_reclaims_idle_capacity(self, clock):
        manager = make_manager(clock, max_sessions=2, idle_timeout_s=10.0)
        manager.open("old", "nopw:epsilon=5")
        manager.append("old", Fix(0.0, 0.0, 0.0))
        manager.append("old", Fix(1.0, 5.0, 0.0))
        clock.advance(11.0)
        manager.open("fresh", "nopw:epsilon=5")
        # At the limit, but "old" is idle: opening evicts it instead of
        # rejecting, and eviction flushes (not drops) its data.
        manager.open("new", "nopw:epsilon=5")
        assert "old" not in manager
        assert "old" in manager.store
        stats = manager.stats()
        assert stats["sessions_evicted"] == 1
        assert stats["sessions_rejected"] == 0

    def test_evict_idle_is_lru_ordered(self, clock):
        manager = make_manager(clock, idle_timeout_s=10.0)
        for name in ("a", "b", "c"):
            manager.open(name, "nopw:epsilon=5")
            manager.append(name, Fix(0.0, 0.0, 0.0))
            manager.append(name, Fix(1.0, 5.0, 0.0))
            clock.advance(4.0)
        # Activity order is a (12s idle), b (8s), c (4s); touch "a" so
        # it becomes most recent and "b" becomes the oldest.
        manager.append("a", Fix(2.0, 6.0, 1.0))
        clock.advance(9.0)  # idle: b=17s, c=13s, a=9s
        assert manager.evict_idle() == ["b", "c"]
        assert manager.live_session_ids == ["a"]
        assert "b" in manager.store and "c" in manager.store

    def test_eviction_flushes_like_close(self, clock, zigzag):
        manager = make_manager(clock, idle_timeout_s=1.0)
        manager.open("z", "opw-tr:epsilon=30")
        for fix in fixes_of(zigzag):
            manager.append("z", fix)
        clock.advance(2.0)
        assert manager.evict_idle() == ["z"]
        expected = zigzag.t[OPWTR(epsilon=30.0).compress(zigzag).indices]
        assert list(manager.store.get("z").t) == list(expected)

    def test_storage_conflict_maps_to_storage_code(self, clock):
        manager = make_manager(clock)  # replace defaults to False
        for attempt in range(2):
            manager.open("same", "nopw:epsilon=5")
            manager.append("same", Fix(0.0, 0.0, 0.0))
            manager.append("same", Fix(1.0, 5.0, float(attempt)))
            if attempt == 0:
                manager.close("same")
            else:
                with pytest.raises(ServeError) as err:
                    manager.close("same")
                assert err.value.code == "storage"
        assert "same" not in manager  # the window is gone either way


def _spec_for(name: str) -> str:
    if name in ("squish", "sttrace"):
        return f"{name}:budget=6"
    spec = f"{name}:epsilon=30"
    if name == "opw-sp":
        spec += ",speed=5"
    return spec


class TestOnlineAlgorithms:
    """Every registered online algorithm serves end-to-end."""

    @pytest.mark.parametrize("name", sorted(available_online_compressors()))
    def test_full_session_lifecycle(self, clock, name, zigzag):
        manager = make_manager(clock)
        manager.open("s", _spec_for(name))
        net: dict[float, Fix] = {}
        for fix in fixes_of(zigzag):
            outcome = manager.append_batch("s", [fix])
            for point in outcome.retained:
                net[point.t] = point
            for point in outcome.evicted:  # budget compressors retract
                del net[point.t]
        record, tail = manager.close("s")
        for point in tail:
            net[point.t] = point
        retained = [net[t] for t in sorted(net)]

        assert record is not None
        assert record.n_raw_points == len(zigzag)
        assert record.n_stored_points == len(retained)
        # Endpoints always survive; everything stored round-trips.
        assert retained[0].t == zigzag.t[0]
        assert retained[-1].t == zigzag.t[-1]
        assert list(manager.store.get("s").t) == [f.t for f in retained]

    @pytest.mark.parametrize("name", ["operb", "cised", "opw-tr"])
    def test_sync_bound_recorded(self, clock, name, zigzag):
        manager = make_manager(clock)
        manager.open("s", _spec_for(name))
        for fix in fixes_of(zigzag):
            manager.append("s", fix)
        record, _ = manager.close("s")
        # The compressor's epsilon plus the codec's quantization slack.
        assert 30.0 <= record.sync_error_bound_m < 30.1

    def test_stats_break_down_by_algorithm(self, clock):
        manager = make_manager(clock)
        manager.open("a", "operb:epsilon=30")
        manager.open("b", "cised:epsilon=30")
        for i in range(5):
            manager.append("a", Fix(float(i), float(i), 0.0))
        manager.append("b", Fix(0.0, 0.0, 0.0))
        by_algo = manager.stats()["fixes_in_by_algorithm"]
        assert by_algo == {"operb": 5, "cised": 1}


class TestDurabilityAndStats:
    def test_flush_persists_store_file(self, clock, tmp_path):
        store_path = tmp_path / "serve.rsto"
        manager = SessionManager(
            TrajectoryStore(), clock=clock, store_path=store_path, durable=False
        )
        manager.open("p", "nopw:epsilon=5")
        manager.append("p", Fix(0.0, 0.0, 0.0))
        manager.append("p", Fix(1.0, 10.0, 0.0))
        manager.close("p")
        assert store_path.exists()
        reloaded = TrajectoryStore.load(store_path)
        assert "p" in reloaded
        assert list(reloaded.get("p").t) == [0.0, 1.0]

    @pytest.mark.parametrize("appends", [1, 6], ids=["one-batch", "six-batches"])
    def test_drained_sessions_land_whole_in_a_preloaded_store(self, clock, tmp_path,
                                                              summarized, appends):
        """The drain a layered ``ingest`` run ends with: one live session
        per ingest spec, each spanning several summary partitions, flushed
        by one ``flush_all`` into a store that already holds records.
        After save and load every record is its stream's online replay
        (served appends plus the drain's final decisions), and every
        summary is the one its blob yields."""
        rng = np.random.default_rng(31)
        store = TrajectoryStore(summary_partition_points=32)
        for i in range(5):
            t = 10_000.0 * i + np.cumsum(rng.uniform(5.0, 15.0, 12))
            store.insert(Trajectory(t, np.cumsum(rng.normal(0.0, 60.0, (12, 2)), axis=0),
                                    f"pre-{i}"))
        preloaded = {key: store.record(key) for key in store.object_ids()}
        store_path = tmp_path / "drain.rsto"
        manager = SessionManager(store, clock=clock, store_path=store_path, durable=False)
        streams, served = {}, {}
        for index, spec in enumerate(("opw-tr:epsilon=25", "operb:epsilon=25",
                                      "squish:budget=100")):
            key = f"live-{index}"
            t = 100_000.0 + np.arange(600.0)
            xy = np.cumsum(rng.normal(0.0, 10.0, (600, 2)), axis=0)
            streams[key] = (spec, [Fix(*row) for row in np.column_stack([t, xy]).tolist()])
            manager.open(key, spec)
            kept, gone = [], set()
            for batch in np.array_split(np.arange(600), appends):
                outcome = manager.append_batch(key, [streams[key][1][i] for i in batch])
                kept += outcome.retained
                gone.update(fix.t for fix in outcome.evicted)
            served[key] = [fix for fix in kept if fix.t not in gone]
        assert sorted(manager.flush_all()) == sorted(streams)
        summarized.clear()
        loaded = TrajectoryStore.load(store_path)
        assert loaded.object_ids() == sorted([*preloaded, *streams])
        for key, record in preloaded.items():
            assert loaded.record(key) == record
        for key, (spec, fixes) in streams.items():
            replayed, gone = [], set()
            compressor = make_online_compressor(spec)
            for events in [*map(compressor.push, fixes), compressor.finish()]:
                retained, evicted = partition_events(events)
                replayed += retained
                gone.update(fix.t for fix in evicted)
            replayed = [fix for fix in replayed if fix.t not in gone]
            assert [fix for fix in replayed if fix.t <= served[key][-1].t] == served[key]
            traj = loaded.get(key)
            np.testing.assert_allclose(traj.t, [fix.t for fix in replayed], rtol=0, atol=1e-3)
            np.testing.assert_allclose(traj.xy, [(fix.x, fix.y) for fix in replayed],
                                       rtol=0, atol=1e-2)
            assert loaded.record(key).n_raw_points == len(fixes)
            summary = loaded.summary(key)
            assert len(summary.partitions) >= 3
            assert summary == build_summary(key, loaded.record(key).blob,
                                            loaded.summary_config)
        assert summarized == []  # every summary is the footer's

    def test_stats_counters(self, clock, zigzag):
        manager = make_manager(clock, max_sessions=1, idle_timeout_s=10.0)
        manager.open("z", "opw-tr:epsilon=30")
        for fix in fixes_of(zigzag):
            manager.append("z", fix)
        with pytest.raises(ServeError):
            manager.open("extra", "nopw:epsilon=5")  # rejected: z is active
        manager.close("z")
        stats = manager.stats()
        assert stats["live_sessions"] == 0
        assert stats["sessions_opened"] == 1
        assert stats["sessions_rejected"] == 1
        assert stats["sessions_flushed"] == 1
        assert stats["fixes_in"] == len(zigzag)
        n_batch = len(OPWTR(epsilon=30.0).compress(zigzag).indices)
        assert stats["fixes_flushed"] == n_batch
        assert stats["fixes_retained"] <= n_batch  # rest came in the close tail
        assert stats["stored_objects"] == 1

    def test_invalid_configuration(self, clock):
        with pytest.raises(ValueError):
            make_manager(clock, max_sessions=0)
        with pytest.raises(ValueError):
            make_manager(clock, idle_timeout_s=0.0)


class TestEvictFailureDiagnostics:
    def test_swallowed_evict_flush_failures_are_recorded(self, clock, zigzag):
        """The idle sweep must not hide why a session's data was lost."""
        manager = make_manager(clock, max_sessions=8)
        points = fixes_of(zigzag)
        # Pre-store the id so the eviction flush collides (replace=False).
        manager.open("dup", "opw-tr:epsilon=30")
        manager.append_many("dup", points)
        manager.close("dup")
        manager.open("dup", "opw-tr:epsilon=30")
        manager.append_many("dup", points)
        clock.advance(60.0)
        evicted = manager.evict_idle()

        assert evicted == ["dup"]
        assert manager.metrics.counter("evict_flush_failures").value == 1
        failures = manager.stats()["last_evict_failures"]
        assert len(failures) == 1
        assert failures[0]["session"] == "dup"
        assert "ServeError" in failures[0]["error"]

    def test_failure_list_is_bounded(self, clock):
        from repro.serve.session import MAX_RECORDED_FAILURES

        manager = make_manager(clock)
        for i in range(MAX_RECORDED_FAILURES + 9):
            manager._record_failure(
                manager.last_evict_failures, f"s{i:03d}", ValueError("boom")
            )
        assert len(manager.last_evict_failures) == MAX_RECORDED_FAILURES
        # Oldest entries are the ones dropped.
        assert manager.last_evict_failures[0]["session"] == "s009"


class TestSequencedAppends:
    def test_append_batch_assigns_and_tracks_seq(self, clock, zigzag):
        manager = make_manager(clock)
        manager.open("z", "opw-tr:epsilon=30")
        points = fixes_of(zigzag)
        first = manager.append_batch("z", points[:4])
        second = manager.append_batch("z", points[4:8])
        assert (first.seq, second.seq) == (1, 2)
        assert manager.get("z").last_seq == 2

    def test_old_duplicate_returns_empty_outcome(self, clock, zigzag):
        manager = make_manager(clock)
        manager.open("z", "opw-tr:epsilon=30")
        points = fixes_of(zigzag)
        manager.append_batch("z", points[:4], seq=1)
        manager.append_batch("z", points[4:8], seq=2)
        stale = manager.append_batch("z", points[:4], seq=1)
        assert stale.duplicate is True
        assert stale.retained == [] and stale.accepted == 0
        assert manager.get("z").n_fixes_in == 8  # nothing re-applied


class TestManagerWithWal:
    def test_lifecycle_is_journaled_and_truncated(self, clock, tmp_path, zigzag):
        from repro.serve.wal import WalWriter, scan_wal

        wal = WalWriter(tmp_path / "wal", durable=False)
        manager = make_manager(clock, wal=wal)
        points = fixes_of(zigzag)
        manager.open("z", "opw-tr:epsilon=30")
        manager.append_many("z", points)
        wal.commit_sync()
        assert scan_wal(tmp_path / "wal").live_sessions["z"].n_fixes == len(points)

        manager.close("z")
        wal.commit_sync()
        wal.close()
        # The flush marker killed the session's WAL records.
        assert not scan_wal(tmp_path / "wal").live_sessions

    def test_recover_rebuilds_exact_state(self, clock, tmp_path, zigzag):
        from repro.serve.wal import WalWriter

        points = fixes_of(zigzag)
        wal = WalWriter(tmp_path / "wal", durable=False)
        manager = make_manager(clock, wal=wal)
        manager.open("z", "opw-tr:epsilon=30")
        manager.append_many("z", points[:6])
        wal.commit_sync()
        wal.close()  # crash: nothing flushed

        wal2 = WalWriter(tmp_path / "wal", durable=False)
        recovered = SessionManager(
            TrajectoryStore(), clock=clock, wal=wal2
        )
        outcome = recovered.recover()
        assert outcome["sessions"] == 1 and outcome["fixes"] == 6
        session = recovered.get("z")
        assert session.recovered is True
        assert session.n_fixes_in == 6
        # Replay is deterministic: continuing the session produces the
        # same downstream decisions an uninterrupted run would.
        recovered.append_many("z", points[6:])
        record, _ = recovered.close("z")
        uninterrupted = make_manager(clock)
        uninterrupted.open("z", "opw-tr:epsilon=30")
        uninterrupted.append_many("z", points)
        expected, _ = uninterrupted.close("z")
        assert record.n_stored_points == expected.n_stored_points

    def test_open_record_with_an_engine_entry_recovers(self, clock, tmp_path, zigzag):
        """WAL open records written while specs still named an engine
        replay as the same session without it."""
        from repro.serve.wal import WalWriter
        from repro.streaming import make_online_compressor

        points = fixes_of(zigzag)
        wal = WalWriter(tmp_path / "wal", durable=False)
        wal.stage_open("z", "opw-tr:epsilon=25,engine=python")
        wal.stage_append("z", 1, points[:7])
        wal.stage_append("z", 2, points[7:])
        wal.commit_sync()
        wal.close()

        manager = SessionManager(
            TrajectoryStore(),
            clock=clock,
            wal=WalWriter(tmp_path / "wal", durable=False),
        )
        assert manager.recover()["sessions"] == 1
        live = manager.get("z").builder.build()
        fresh = make_online_compressor("opw-tr:epsilon=25")
        replayed = [kept for fix in points for kept in fresh.push(fix)]
        assert len(replayed) > 2
        assert [Fix(*row) for row in zip(live.t, live.x, live.y)] == replayed

    def test_unrecoverable_spec_is_reported_not_fatal(self, clock, tmp_path):
        from repro.serve.wal import WalWriter

        wal = WalWriter(tmp_path / "wal", durable=False)
        wal.stage_open("bad", "no-such-algorithm:epsilon=1")
        wal.stage_open("good", "opw-tr:epsilon=30")
        wal.stage_append("good", 1, [Fix(0.0, 0.0, 0.0)])
        wal.commit_sync()
        wal.close()

        manager = SessionManager(
            TrajectoryStore(),
            clock=clock,
            wal=WalWriter(tmp_path / "wal", durable=False),
        )
        outcome = manager.recover()
        assert outcome == {
            "sessions": 1, "fixes": 1, "failed": 1, "dropped_lines": 0
        }
        assert "good" in manager and "bad" not in manager
        failures = manager.stats()["last_recovery_failures"]
        assert failures and failures[0]["session"] == "bad"

    def test_recover_releases_the_replayed_batches(self, clock, tmp_path):
        """After replay the fixes live on as compressor state only: the
        WAL scan that delivered them must not hold them any longer."""
        import tracemalloc

        from repro.serve import wal as wal_module

        wal = wal_module.WalWriter(tmp_path / "wal", durable=False)
        for i in range(20):
            wal.stage_open(f"s{i}", "squish:budget=5")
            for seq in range(1, 201):
                start = 10 * (seq - 1)
                batch = [
                    Fix(float(t), float(t % 7), 0.0)
                    for t in range(start, start + 10)
                ]
                wal.stage_append(f"s{i}", seq, batch)
        wal.commit_sync()
        wal.close()

        def wal_module_bytes() -> int:
            """Traced memory still allocated by repro.serve.wal code."""
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, wal_module.__file__)]
            )
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            wal = wal_module.WalWriter(tmp_path / "wal", durable=False)
            manager = SessionManager(
                TrajectoryStore(), clock=clock, wal=wal, max_sessions=20
            )
            scanned = wal_module_bytes()
            outcome = manager.recover()
            held = wal_module_bytes()
        finally:
            tracemalloc.stop()
        assert outcome == {
            "sessions": 20, "fixes": 40_000, "failed": 0, "dropped_lines": 0
        }
        # Before replay the scan held every fix. After it, what the
        # sessions keep (5 retained points and the last 10-fix batch's
        # cached outcome each) and the interpreter's free lists may
        # still be charged to the scan's allocation sites: a few percent.
        assert scanned > 3 * 1024 * 1024
        assert held < scanned / 8
        stats = wal.stats()
        assert stats["recovered_sessions"] == 20
        assert stats["recovered_records"] == 20 * 201
