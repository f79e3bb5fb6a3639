"""Unit tests of the serve tier's write-ahead log.

Covers the contract pieces the serve-path model leans on: group commit
durability and coalescing, segment liveness/truncation, torn-tail
recovery, sticky failure, and the scan's demultiplexing of a shared log
back into per-session replay streams.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.serve.wal as wal_module
from repro.exceptions import WalError
from repro.io_util import encode_crc_line
from repro.serve.faults import Fault, FaultInjector
from repro.serve.wal import WalWriter, scan_wal
from repro.types import Fix


def fixes(*triples):
    return [Fix(*t) for t in triples]


class TestDirectoryLock:
    def test_second_writer_on_a_locked_directory_raises(self, tmp_path):
        """One writer owns a WAL directory from before its recovery scan
        until it closes: a second is refused and touches nothing."""
        first = WalWriter(tmp_path, durable=False)
        first.stage_open("a", "opw-tr:epsilon=10")
        first.commit_sync()
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(WalError, match="in use by another writer"):
            WalWriter(tmp_path, durable=False)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        first.close()
        second = WalWriter(tmp_path, durable=False)
        assert list(second.recovered.live_sessions) == ["a"]
        second.close()

    def test_a_writer_that_fails_to_open_releases_the_lock(self, tmp_path, monkeypatch):
        """A writer whose recovery fails after it took the lock releases
        it, even while its exception (and so the writer) is still held:
        a retry in the same process opens the directory."""
        def failing_scan(directory):
            raise OSError("scan failed")

        monkeypatch.setattr(wal_module, "scan_wal", failing_scan)
        with pytest.raises(OSError, match="scan failed") as failure:
            WalWriter(tmp_path, durable=False)
        monkeypatch.undo()
        retry = WalWriter(tmp_path, durable=False)
        assert failure.value is not None
        retry.close()


class TestStageAndCommit:
    def test_committed_records_survive_a_rescan(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "opw-tr:epsilon=10")
        wal.stage_append("a", 1, fixes((0.0, 1.5, 2.5), (1.0, 3.0, 4.0)))
        wal.stage_append("a", 2, fixes((2.0, 5.0, 6.0)))
        wal.commit_sync()
        wal.close()

        scan = scan_wal(tmp_path)
        assert list(scan.live_sessions) == ["a"]
        session = scan.live_sessions["a"]
        assert session.spec == "opw-tr:epsilon=10"
        assert [seq for seq, _ in session.appends] == [1, 2]
        # Floats round-trip exactly through the JSON log lines.
        assert session.appends[0][1] == fixes((0.0, 1.5, 2.5), (1.0, 3.0, 4.0))
        assert session.last_seq == 2
        assert session.n_fixes == 3

    def test_uncommitted_records_are_not_on_disk(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec")
        assert wal.pending_records == 1
        assert scan_wal(tmp_path).records == 0
        wal.commit_sync()
        assert wal.pending_records == 0
        assert scan_wal(tmp_path).records == 1

    def test_commit_with_nothing_staged_is_a_noop(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.commit_sync()
        assert wal.stats()["commits"] == 0

    def test_group_commit_coalesces_concurrent_committers(self, tmp_path):
        async def scenario():
            wal = WalWriter(tmp_path, durable=False)
            for i in range(8):
                wal.stage_append("a", i + 1, fixes((float(i), 0.0, 0.0)))
            await asyncio.gather(*(wal.commit() for _ in range(8)))
            return wal.stats()

        stats = asyncio.run(scenario())
        assert stats["committed_records"] == 8
        # One writer takes the lock and flushes the whole group; the
        # other seven find their records already durable.
        assert stats["commits"] == 1

    def test_flushed_marker_truncates_the_segment(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False, segment_bytes=1)
        wal.stage_open("a", "spec")
        wal.stage_append("a", 1, fixes((0.0, 0.0, 0.0)))
        wal.commit_sync()  # tiny segment_bytes: rotates after this commit
        wal.stage_flushed("a")
        wal.commit_sync()
        wal.close()
        assert not scan_wal(tmp_path).live_sessions
        # The flushed session's segments are deleted outright.
        assert list(tmp_path.glob("seg-*.wal")) == []

    def test_a_marker_outlives_the_records_it_retires(self, tmp_path):
        """A segment holding only ``a``'s flush marker is dead, but while
        an older segment (kept by live ``b``) holds ``a``'s records, the
        marker must stay: a scan without it finds ``a`` live again."""
        wal = WalWriter(tmp_path, durable=False, segment_bytes=1)
        wal.stage_open("a", "spec")
        wal.stage_open("b", "spec")
        wal.commit_sync()  # rotates after each commit
        wal.stage_flushed("a")
        wal.commit_sync()
        wal.close()
        for _ in range(2):  # a restart, then another
            assert sorted(scan_wal(tmp_path).live_sessions) == ["b"]
            WalWriter(tmp_path, durable=False).close()
        assert sorted(scan_wal(tmp_path).live_sessions) == ["b"]

    def test_dead_segments_are_dropped_at_startup(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec")
        wal.stage_flushed("a")
        wal.commit_sync()
        wal.close()
        assert list(tmp_path.glob("seg-*.wal"))  # flushed, but still on disk
        WalWriter(tmp_path, durable=False).close()
        assert list(tmp_path.glob("seg-*.wal")) == []


class TestRecoveryEdges:
    def test_torn_tail_is_dropped_and_counted(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec")
        wal.stage_append("a", 1, fixes((0.0, 0.0, 0.0)))
        wal.commit_sync()
        wal.close()
        segment = next(iter(tmp_path.glob("seg-*.wal")))
        with segment.open("ab") as handle:
            handle.write(b'00000000 {"k":"a","s":"a","q":2')  # torn mid-write

        scan = scan_wal(tmp_path)
        assert scan.dropped_lines == 1
        assert scan.live_sessions["a"].last_seq == 1

    def test_damage_mid_log_discards_everything_after(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec")
        wal.commit_sync()
        wal.close()
        segment = next(iter(tmp_path.glob("seg-*.wal")))
        good = segment.read_bytes()
        segment.write_bytes(good + b"garbage line\n" + good)

        scan = scan_wal(tmp_path)
        # The intact prefix survives; damaged line + everything after is
        # dropped (those bytes postdate the last acknowledged fsync).
        assert scan.records == 1
        assert scan.dropped_lines == 2

    def test_torn_tail_is_truncated_by_the_next_writer(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec")
        wal.stage_append("a", 1, fixes((0.0, 0.0, 0.0)))
        wal.commit_sync()
        wal.close()
        segment = next(iter(tmp_path.glob("seg-*.wal")))
        intact = segment.read_bytes()
        with segment.open("ab") as handle:
            handle.write(b'00000000 {"k":"a","s":"a","q":2')

        recovered = WalWriter(tmp_path, durable=False)
        assert recovered.recovered.dropped_lines == 1
        recovered.close()
        # The damaged bytes are physically gone, not merely ignored.
        assert segment.read_bytes() == intact
        assert scan_wal(tmp_path).dropped_lines == 0

    def test_acked_records_survive_a_second_restart_after_torn_tail(
        self, tmp_path
    ):
        """The REVIEW high-severity case: damage + new acks + crash again.

        Without startup truncation the second scan rediscovers the torn
        line in the old segment and discards the newer segment's
        acknowledged records wholesale.
        """
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec")
        wal.stage_append("a", 1, fixes((0.0, 0.0, 0.0)))
        wal.commit_sync()
        wal.close()
        segment = next(iter(tmp_path.glob("seg-*.wal")))
        with segment.open("ab") as handle:
            handle.write(b'00000000 {"k":"a","s":"a","q":2')

        second = WalWriter(tmp_path, durable=False)  # restart one
        assert second.recovered.live_sessions["a"].last_seq == 1
        second.stage_append("a", 2, fixes((1.0, 1.0, 1.0)))
        second.commit_sync()  # acknowledged into a newer segment
        second.close()

        third = WalWriter(tmp_path, durable=False)  # restart two
        session = third.recovered.live_sessions["a"]
        assert [seq for seq, _ in session.appends] == [1, 2]
        assert third.recovered.dropped_lines == 0
        third.close()

    def test_valid_crc_but_invalid_record_is_damage(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec")
        wal.stage_append("a", 1, fixes((0.0, 0.0, 0.0)))
        wal.commit_sync()
        wal.close()
        segment = next(iter(tmp_path.glob("seg-*.wal")))
        bad = json.dumps({"k": "a", "s": "a", "q": "not-an-int", "f": "x"})
        tail = json.dumps(
            {"k": "a", "s": "a", "q": 2, "f": [2.0, 5.0, 5.0]}
        )
        with segment.open("a") as handle:
            handle.write(encode_crc_line(bad))
            handle.write(encode_crc_line(tail))

        scan = scan_wal(tmp_path)
        # Corruption stops the scan — the structurally valid append
        # after it must NOT be applied over a silently dropped batch.
        assert scan.dropped_lines == 2
        assert scan.live_sessions["a"].last_seq == 1

    def test_non_utf8_tail_is_damage_not_a_crash(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec")
        wal.commit_sync()
        wal.close()
        segment = next(iter(tmp_path.glob("seg-*.wal")))
        with segment.open("ab") as handle:
            handle.write(b"\xff\xfe torn binary tail")

        scan = scan_wal(tmp_path)
        assert scan.dropped_lines == 1
        assert list(scan.live_sessions) == ["a"]

    def test_missing_directory_recovers_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "never-created")
        assert not scan.sessions and scan.records == 0

    def test_reopened_id_after_flush_recovers_fresh_session(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec-one")
        wal.stage_append("a", 1, fixes((0.0, 0.0, 0.0)))
        wal.stage_flushed("a")
        wal.stage_open("a", "spec-two")
        wal.stage_append("a", 1, fixes((5.0, 1.0, 1.0)))
        wal.commit_sync()
        wal.close()

        scan = scan_wal(tmp_path)
        session = scan.live_sessions["a"]
        assert session.spec == "spec-two"
        assert session.n_fixes == 1

    def test_a_reopened_id_supersedes_its_unflushed_session(self, tmp_path):
        """An id reopened after its flush was refused (no marker) is
        recovered as the new session, not as both merged."""
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec-one")
        wal.stage_append("a", 1, fixes((0.0, 0.0, 0.0)))
        wal.stage_open("a", "spec-two")
        wal.stage_append("a", 1, fixes((5.0, 1.0, 1.0)))
        wal.commit_sync()
        wal.close()

        session = scan_wal(tmp_path).live_sessions["a"]
        assert (session.spec, session.n_fixes, session.last_seq) == ("spec-two", 1, 1)


class TestStickyFailure:
    def test_fsync_failure_poisons_the_writer(self, tmp_path):
        faults = FaultInjector().set(
            "wal.fsync", Fault(at=1, error=OSError("no space"), once=False)
        )
        wal = WalWriter(tmp_path, durable=False, faults=faults)
        wal.stage_open("a", "spec")
        with pytest.raises(WalError):
            wal.commit_sync()
        assert wal.failed is not None
        assert wal.dirty_sessions() == {"a"}
        # Sticky: staging refuses too, so nothing can be acked again.
        with pytest.raises(WalError):
            wal.stage_append("a", 1, fixes((0.0, 0.0, 0.0)))
        assert wal.stats()["failed"] is True
        assert wal.stats()["commit_failures"] == 1

    def test_sessions_staged_during_a_commit_stay_dirty(self, tmp_path):
        """A record staged while the group write is in flight is not
        durable yet; its session must survive the commit's dirty-set
        bookkeeping or a later failed commit would not discard it."""
        wal = WalWriter(tmp_path, durable=False)
        wal.stage_open("a", "spec")
        original = wal._encode_and_write

        def write_then_stage(group):
            written = original(group)
            # Simulates an append arriving while the executor write of
            # the committing group is still in flight.
            wal.stage_open("b", "spec")
            return written

        wal._encode_and_write = write_then_stage
        wal.commit_sync()
        wal._encode_and_write = original

        assert wal.dirty_sessions() == {"b"}
        assert wal.pending_records == 1
        wal.commit_sync()
        assert wal.dirty_sessions() == set()
        assert wal.pending_records == 0
        wal.close()

    def test_committer_parked_behind_a_poison_refuses_to_write(self, tmp_path):
        """Both concurrent committers must fail when the lock holder
        poisons the log; the parked one must not write afterwards or
        mark the lost records committed."""

        async def scenario():
            faults = FaultInjector().set(
                "wal.fsync", Fault(at=1, error=OSError("boom"), once=True)
            )
            wal = WalWriter(tmp_path, durable=False, faults=faults)
            wal.stage_open("a", "spec")
            results = await asyncio.gather(
                wal.commit(), wal.commit(), return_exceptions=True
            )
            return wal, results

        wal, results = asyncio.run(scenario())
        assert all(isinstance(r, WalError) for r in results), results
        # The single-shot fault would let a second write succeed; the
        # parked committer must never have attempted one.
        assert wal.stats()["committed_records"] == 0
        assert wal.stats()["commits"] == 0
        assert wal.dirty_sessions() == {"a"}

    def test_fault_fires_on_the_configured_commit(self, tmp_path):
        faults = FaultInjector().set(
            "wal.fsync", Fault(at=3, error=OSError("late failure"), once=False)
        )
        wal = WalWriter(tmp_path, durable=False, faults=faults)
        for seq in (1, 2):
            wal.stage_append("a", seq, fixes((float(seq), 0.0, 0.0)))
            wal.commit_sync()  # commits 1 and 2 succeed
        wal.stage_append("a", 3, fixes((3.0, 0.0, 0.0)))
        with pytest.raises(WalError):
            wal.commit_sync()
        # Only the first two batches are durable (no open record staged
        # here, so the scan sees appends without a session: count lines).
        assert faults.get("wal.fsync").triggered == 1


class TestSegmentRotation:
    def test_rotation_keeps_live_sessions_replayable(self, tmp_path):
        wal = WalWriter(tmp_path, durable=False, segment_bytes=128)
        wal.stage_open("a", "spec")
        wal.commit_sync()
        for seq in range(1, 8):
            wal.stage_append("a", seq, fixes((float(seq), 1.0, 2.0)))
            wal.commit_sync()
        wal.close()
        assert len(list(tmp_path.glob("seg-*.wal"))) > 1  # actually rotated

        scan = scan_wal(tmp_path)
        session = scan.live_sessions["a"]
        assert [seq for seq, _ in session.appends] == list(range(1, 8))
