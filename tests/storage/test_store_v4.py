"""Store file version 4: the summary footer and v2/v3 back-compat.

Version 4 appends an ``RSUM`` footer (partition summaries + their
config) after the record region. These tests pin the compatibility
contract: v4 round-trips summaries bit-identically, older files still
load (summaries rebuild lazily from blobs, yielding the same values),
and a damaged footer never takes the records down with it.
"""

from __future__ import annotations

import struct

import pytest

from repro.exceptions import ObjectNotFoundError, StorageError
from repro.io_util import crc32
from repro.query.summaries import FOOTER_MAGIC, SummaryConfig, encode_footer
from repro.storage.store import TrajectoryStore


def _make_store(small_dataset, **kwargs) -> TrajectoryStore:
    store = TrajectoryStore(summary_partition_points=8, **kwargs)
    for traj in small_dataset:
        store.insert(traj)
    return store


def _downgrade(data: bytes, version: int) -> bytes:
    """Rewrite a saved v4 file as an older version: patch the header
    byte and drop the footer (and, for v2, each record's CRC trailer)."""
    footer = _footer_start(data)
    out = bytearray()
    out += data[:4]
    _, count = struct.unpack_from("<BI", data, 4)
    out += struct.pack("<BI", version, count)
    offset = 9
    for _ in range(count):
        n_raw, bound, blob_len = struct.unpack_from("<IdI", data, offset)
        record = data[offset : offset + 16 + blob_len]
        offset += 16 + blob_len
        out += record
        if version >= 3:
            out += data[offset : offset + 4]  # keep the record CRC
        offset += 4
    assert offset == footer, "record region must end where the footer starts"
    return bytes(out)


def _footer_start(data: bytes) -> int:
    index = data.rfind(FOOTER_MAGIC)
    assert index > 0, "saved v4 file must contain a summary footer"
    return index


class TestV4RoundTrip:
    def test_summaries_round_trip_bit_identically(self, small_dataset, tmp_path):
        store = _make_store(small_dataset)
        path = tmp_path / "v4.rsto"
        store.save(path)
        loaded = TrajectoryStore.load(path)
        assert loaded.summary_config == store.summary_config
        assert loaded.object_ids() == store.object_ids()
        for key in store.object_ids():
            # Frozen dataclasses all the way down: exact equality means
            # the footer reproduced every float bit-for-bit.
            assert loaded.summary(key) == store.summary(key)
            assert loaded.get(key) == store.get(key)

    def test_load_adopts_the_file_summary_config(self, small_dataset, tmp_path):
        store = _make_store(small_dataset, summary_grid_m=7.5,
                            summary_time_grid_s=2.0)
        path = tmp_path / "tuned.rsto"
        store.save(path)
        loaded = TrajectoryStore.load(path)  # constructor defaults differ
        assert loaded.summary_config == SummaryConfig(8, 7.5, 2.0)

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "empty.rsto"
        TrajectoryStore().save(path)
        assert TrajectoryStore.load(path).object_ids() == []

    def test_file_carries_exactly_one_footer(self, small_dataset, tmp_path):
        store = _make_store(small_dataset)
        path = tmp_path / "v4.rsto"
        store.save(path)
        data = path.read_bytes()
        expected = encode_footer(
            {key: store.summary(key) for key in store.object_ids()},
            store.summary_config,
        )
        assert data.endswith(expected)


class TestBackCompat:
    @pytest.mark.parametrize("version", [2, 3])
    def test_older_files_load_with_lazy_summaries(
        self, small_dataset, tmp_path, version
    ):
        store = _make_store(small_dataset)
        modern = tmp_path / "v4.rsto"
        store.save(modern)
        legacy = tmp_path / f"v{version}.rsto"
        legacy.write_bytes(_downgrade(modern.read_bytes(), version))
        loaded = TrajectoryStore.load(legacy, summary_partition_points=8)
        assert loaded.object_ids() == store.object_ids()
        for key in store.object_ids():
            assert loaded.get(key) == store.get(key)
            # No footer: the summary is rebuilt lazily from the blob and
            # must match what insert-time summarization produced.
            assert loaded.summary(key) == store.summary(key)

    def test_v4_without_footer_loads(self, small_dataset, tmp_path):
        """A v4 writer that died between records and footer still left a
        loadable file (the footer is optional on read)."""
        store = _make_store(small_dataset)
        path = tmp_path / "v4.rsto"
        store.save(path)
        data = path.read_bytes()
        bare = tmp_path / "bare.rsto"
        bare.write_bytes(data[: _footer_start(data)])
        loaded = TrajectoryStore.load(bare)
        assert loaded.object_ids() == store.object_ids()

    def test_unsupported_version_is_rejected(self, small_dataset, tmp_path):
        store = _make_store(small_dataset)
        path = tmp_path / "v4.rsto"
        store.save(path)
        data = bytearray(path.read_bytes())
        data[4] = 5
        bad = tmp_path / "v5.rsto"
        bad.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="unsupported store version"):
            TrajectoryStore.load(bad)


class TestFooterDamage:
    @pytest.fixture
    def saved(self, small_dataset, tmp_path):
        store = _make_store(small_dataset)
        path = tmp_path / "v4.rsto"
        store.save(path)
        return store, path, path.read_bytes()

    def _flip(self, tmp_path, data: bytes, position: int):
        mutated = bytearray(data)
        mutated[position] ^= 0x5A
        path = tmp_path / "flipped.rsto"
        path.write_bytes(bytes(mutated))
        return path

    def test_flipped_footer_byte_raises_by_default(self, saved, tmp_path):
        _, _, data = saved
        path = self._flip(tmp_path, data, _footer_start(data) + 30)
        with pytest.raises(StorageError, match="summary footer"):
            TrajectoryStore.load(path)

    def test_flipped_footer_crc_raises_by_default(self, saved, tmp_path):
        _, _, data = saved
        path = self._flip(tmp_path, data, len(data) - 2)
        with pytest.raises(StorageError, match="summary footer"):
            TrajectoryStore.load(path)

    def test_skip_quarantines_the_footer_and_keeps_records(
        self, saved, tmp_path
    ):
        store, _, data = saved
        path = self._flip(tmp_path, data, _footer_start(data) + 30)
        loaded = TrajectoryStore.load(
            path, verify="skip", summary_partition_points=8
        )
        assert loaded.object_ids() == store.object_ids()
        assert any("summary footer" in reason for reason in loaded.load_failures)
        for key in store.object_ids():
            assert loaded.get(key) == store.get(key)
            # Quarantined footer -> lazy rebuild under the constructor
            # config, same values as insert-time summarization.
            assert loaded.summary(key) == store.summary(key)

    def test_trailing_garbage_after_footer_is_rejected(self, saved, tmp_path):
        _, _, data = saved
        path = tmp_path / "trailing.rsto"
        path.write_bytes(data + b"junk")
        with pytest.raises(StorageError):
            TrajectoryStore.load(path)

    def test_record_damage_is_independent_of_the_footer(self, saved, tmp_path):
        """A corrupt record under ``verify="skip"`` is dropped while the
        footer still loads — and summaries of dropped records are not
        resurrected from it."""
        store, _, data = saved
        mutated = bytearray(data)
        # Flip a byte inside the first record's blob region.
        mutated[9 + 16 + 4] ^= 0xFF
        path = tmp_path / "record-flip.rsto"
        path.write_bytes(bytes(mutated))
        loaded = TrajectoryStore.load(path, verify="skip")
        assert len(loaded.load_failures) == 1
        survivors = loaded.object_ids()
        assert len(survivors) == len(store.object_ids()) - 1
        for key in survivors:
            assert loaded.summary(key) == store.summary(key)


class TestFooterQuarantineDefaultConfig:
    def test_loaded_summaries_never_outlive_their_records(
        self, small_dataset, tmp_path, summarized
    ):
        """The footer may describe ids the record region no longer has
        (hand-edited or partially recovered files); load must drop them
        rather than serve summaries of phantom objects."""
        store = _make_store(small_dataset)
        partial = TrajectoryStore(summary_partition_points=8)
        partial.insert(small_dataset[0])
        # Build the file by hand: one record + a footer naming all three.
        path = tmp_path / "one.rsto"
        partial.save(path)
        data = path.read_bytes()
        body = data[: data.rfind(FOOTER_MAGIC)]
        footer = encode_footer(
            {key: store.summary(key) for key in store.object_ids()},
            store.summary_config,
        )
        crafted = tmp_path / "phantom.rsto"
        crafted.write_bytes(body + footer)
        summarized.clear()
        loaded = TrajectoryStore.load(crafted)
        kept = small_dataset[0].object_id
        assert loaded.object_ids() == [kept]
        assert loaded.summary(kept) == store.summary(kept)
        assert summarized == []  # the footer's summary, not a rebuilt one
        for phantom in set(store.object_ids()) - {kept}:
            with pytest.raises(ObjectNotFoundError):
                loaded.summary(phantom)


def test_v3_crc_still_verified(small_dataset, tmp_path):
    """Downgraded (v3) files keep per-record CRCs; a flip is detected."""
    store = _make_store(small_dataset)
    modern = tmp_path / "v4.rsto"
    store.save(modern)
    data = bytearray(_downgrade(modern.read_bytes(), 3))
    data[9 + 16 + 4] ^= 0xFF
    # Re-check: the stored record CRC must now mismatch.
    legacy = tmp_path / "v3-flip.rsto"
    legacy.write_bytes(bytes(data))
    with pytest.raises(Exception) as err:
        TrajectoryStore.load(legacy)
    assert "checksum" in str(err.value)


def test_crc32_helper_matches_zlib():
    import zlib

    assert crc32(b"repro") == zlib.crc32(b"repro") & 0xFFFFFFFF
