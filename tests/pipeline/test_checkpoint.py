"""Tests for the checkpoint manifest + journal layer."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import CheckpointError
from repro.io_util import crc32_text
from repro.pipeline.checkpoint import (
    JOURNAL_NAME,
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    RunCheckpoint,
    read_manifest,
)

MANIFEST = {
    "compressor": "td-tr:epsilon=30",
    "on_error": "skip",
    "evaluate": "sync",
    "on_malformed": None,
    "item_ids": ["a", "b", "c"],
}


class TestManifest:
    def test_fresh_open_writes_manifest(self, tmp_path):
        ck = RunCheckpoint.open(tmp_path / "ck", MANIFEST)
        ck.close()
        stored = json.loads((tmp_path / "ck" / MANIFEST_NAME).read_text())
        assert stored["format"] == MANIFEST_FORMAT
        assert stored["compressor"] == "td-tr:epsilon=30"
        assert stored["item_ids"] == ["a", "b", "c"]

    def test_reopen_same_manifest_is_fine(self, tmp_path):
        RunCheckpoint.open(tmp_path / "ck", MANIFEST).close()
        RunCheckpoint.open(tmp_path / "ck", MANIFEST).close()

    def test_reopen_different_config_raises(self, tmp_path):
        RunCheckpoint.open(tmp_path / "ck", MANIFEST).close()
        changed = dict(MANIFEST, compressor="dp:epsilon=10", on_error="raise")
        with pytest.raises(CheckpointError, match="compressor, on_error"):
            RunCheckpoint.open(tmp_path / "ck", changed)

    def test_reopen_different_items_raises(self, tmp_path):
        RunCheckpoint.open(tmp_path / "ck", MANIFEST).close()
        changed = dict(MANIFEST, item_ids=["a", "b"])
        with pytest.raises(CheckpointError, match="item_ids"):
            RunCheckpoint.open(tmp_path / "ck", changed)

    @pytest.mark.parametrize(
        "stored, current",
        [
            ("td-tr:epsilon=30,engine=python", "td-tr:epsilon=30"),
            ("td-tr:engine=numpy", "td-tr"),
            ("TDTR(engine='numpy', epsilon=30.0)", "TDTR(epsilon=30.0)"),
        ],
    )
    def test_stored_engine_entry_is_dropped(self, tmp_path, stored, current):
        """Manifests written while compressors took an ``engine`` still
        match the same run configured without one."""
        directory = tmp_path / "ck"
        directory.mkdir()
        legacy = {"format": MANIFEST_FORMAT, **MANIFEST, "compressor": stored}
        (directory / MANIFEST_NAME).write_text(json.dumps(legacy))
        assert read_manifest(directory)["compressor"] == current
        RunCheckpoint.open(directory, dict(MANIFEST, compressor=current)).close()

    def test_read_manifest_missing_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            read_manifest(tmp_path / "nope")

    def test_read_manifest_unparsable_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            read_manifest(tmp_path)

    def test_read_manifest_non_object_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            read_manifest(tmp_path)


class TestJournal:
    def test_record_completed_round_trip(self, tmp_path):
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            ck.record({"index": 0, "ok": True, "item_id": "a"})
            ck.record({"index": 2, "ok": False, "item_id": "c"})
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            done = ck.completed()
        assert set(done) == {0, 2}
        assert done[0]["item_id"] == "a"
        assert done[2]["ok"] is False

    def test_empty_journal(self, tmp_path):
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            assert ck.completed() == {}

    def test_torn_tail_is_dropped(self, tmp_path):
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            ck.record({"index": 0, "ok": True})
            ck.record({"index": 1, "ok": True})
        journal = tmp_path / "ck" / JOURNAL_NAME
        text = journal.read_text()
        # Simulate a crash mid-append: cut the final line in half.
        journal.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            assert set(ck.completed()) == {0}

    def test_corrupt_middle_line_raises(self, tmp_path):
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            ck.record({"index": 0, "ok": True})
            ck.record({"index": 1, "ok": True})
            ck.record({"index": 2, "ok": True})
        journal = tmp_path / "ck" / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        lines[1] = lines[1][:12] + "X" + lines[1][13:]
        journal.write_text("\n".join(lines) + "\n")
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            with pytest.raises(CheckpointError, match="line 2"):
                ck.completed()

    def test_duplicate_index_raises(self, tmp_path):
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            ck.record({"index": 0, "ok": True})
            ck.record({"index": 0, "ok": True})
            ck.record({"index": 1, "ok": True})
            with pytest.raises(CheckpointError, match="duplicate"):
                ck.completed()

    def test_missing_index_raises(self, tmp_path):
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            ck.record({"ok": True})
            ck.record({"index": 1, "ok": True})
            with pytest.raises(CheckpointError, match="item index"):
                ck.completed()

    def test_journal_lines_carry_valid_crcs(self, tmp_path):
        with RunCheckpoint.open(tmp_path / "ck", MANIFEST) as ck:
            ck.record({"index": 0, "ok": True})
        line = (tmp_path / "ck" / JOURNAL_NAME).read_text().splitlines()[0]
        crc_text, payload = line.split(" ", 1)
        assert int(crc_text, 16) == crc32_text(payload)
