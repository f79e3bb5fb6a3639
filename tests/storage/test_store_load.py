"""The chunked store load against a per-record reference loader.

:meth:`TrajectoryStore.load` frames and checksums records one at a time
but decodes their points a bounded chunk at a time, in one numpy pass
per chunk. These tests pin that it changes nothing observable:

* ``save`` output is byte-identical to a file written before the
  chunked loader existed (``tests/data/store/fixture-v4.rsto``);
* a store's catalog and summaries survive ``save`` → ``load``
  unchanged, because every mutation path builds them from decoded
  points;
* on clean and corrupted files alike, the chunked loader gives the same
  records, ``load_failures`` and failure counters as
  :func:`reference_load` — the per-record loader it replaced — and
  raises the same exceptions under ``verify="raise"``.
"""

from __future__ import annotations

import gc
import math
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.storage.codec as codec_module
import repro.storage.store as store_module
from repro.core import TDTR
from repro.exceptions import CorruptRecordError, ReproError, StorageError
from repro.io_util import crc32
from repro.obs import Registry
from repro.query.summaries import build_summary, parse_footer
from repro.storage.codec import decode_trajectory, encode_trajectory, encode_varint, zigzag
from repro.storage.store import StoredRecord, TrajectoryStore
from repro.trajectory.trajectory import Trajectory

from tests.conftest import trajectories
from tests.storage.test_store_v4 import _downgrade

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "store" / "fixture-v4.rsto"
COUNTERS = (
    "store_crc_failures",
    "store_load_record_failures",
    "store_summary_footer_failures",
)


def build_fixture_store() -> TrajectoryStore:
    """The inserts behind ``fixture-v4.rsto``: raw, compressed, upstream-
    compressed and appended records, a one-point record, and objects
    spanning several summary partitions."""
    rng = np.random.default_rng(20041)
    store = TrajectoryStore(cell_size_m=300.0, summary_partition_points=8)
    for index in range(12):
        n = 1 if index == 0 else int(rng.integers(2, 40))
        t = 1_000.0 * index + np.cumsum(rng.uniform(0.5, 20.0, n))
        xy = rng.uniform(-5_000.0, 5_000.0, 2) + np.cumsum(
            rng.normal(0.0, 80.0, (n, 2)), axis=0
        )
        traj = Trajectory(t, xy, f"obj-{index:02d}")
        if index % 3 == 1:
            store.insert(traj, compressor=TDTR(epsilon=15.0))
        elif index % 3 == 2:
            store.insert(traj, raw_point_count=n + 7, sync_error_bound_m=None)
        else:
            store.insert(traj)
    later = Trajectory(
        np.array([90_000.0, 90_004.5, 90_011.0]),
        np.array([[1.0, 2.0], [30.0, -40.0], [61.5, -80.25]]),
        "obj-04",
    )
    store.append("obj-04", later)
    return store


# ---------------------------------------------------------------------- #
# The reference: one record at a time through decode_trajectory
# ---------------------------------------------------------------------- #


def reference_load(path: Path, verify: str = "raise") -> dict:
    """The per-record loader: frame, checksum and decode each record alone.

    Returns the records, failures, footer summaries and failure counters
    a load must produce.
    """
    registry = Registry()
    data = path.read_bytes()
    if len(data) < 9 or data[:4] != b"RSTO":
        raise StorageError(f"{path}: not a repro store file")
    version, count = struct.unpack_from("<BI", data, 4)
    if not 2 <= version <= 4:
        raise StorageError(f"{path}: unsupported store version {version}")
    records: dict[str, StoredRecord] = {}
    failures: list[str] = []
    summaries: dict = {}
    config = None
    record_size = 16 + (4 if version >= 3 else 0)
    offset = 9
    truncated = None
    for index in range(count):
        if offset + 16 > len(data):
            truncated = f"{path}: truncated record header (record {index})"
            break
        n_raw, bound_raw, blob_len = struct.unpack_from("<IdI", data, offset)
        if offset + record_size + blob_len > len(data):
            truncated = f"{path}: truncated record blob (record {index})"
            break
        framed = data[offset : offset + 16 + blob_len]
        blob = framed[16:]
        offset += 16 + blob_len
        try:
            if version >= 3:
                (stored_crc,) = struct.unpack_from("<I", data, offset)
                offset += 4
                actual_crc = crc32(framed)
                if stored_crc != actual_crc:
                    raise CorruptRecordError(
                        f"{path}: record {index} checksum mismatch "
                        f"(stored {stored_crc:#010x}, computed "
                        f"{actual_crc:#010x}) — the file was altered "
                        f"after write"
                    )
            traj = decode_trajectory(blob)
            if not traj.object_id:
                raise StorageError(f"{path}: stored blob lacks an object id")
        except ReproError as exc:
            if isinstance(exc, CorruptRecordError):
                registry.counter("store_crc_failures").inc()
            if verify == "skip":
                registry.counter("store_load_record_failures").inc()
                failures.append(f"record {index}: {type(exc).__name__}: {exc}")
                continue
            raise
        records[traj.object_id] = StoredRecord(
            object_id=traj.object_id,
            blob=blob,
            n_raw_points=n_raw,
            n_stored_points=len(traj),
            start_time=traj.start_time,
            end_time=traj.end_time,
            bbox=traj.bbox(),
            sync_error_bound_m=None if math.isnan(bound_raw) else float(bound_raw),
        )
    if truncated is not None:
        if verify != "skip":
            raise StorageError(truncated)
        failures.append(truncated)
    else:
        if version >= 4 and offset < len(data):
            try:
                config, parsed, offset = parse_footer(data, offset)
            except ReproError as exc:
                if verify != "skip":
                    raise StorageError(f"{path}: summary footer: {exc}") from exc
                registry.counter("store_summary_footer_failures").inc()
                failures.append(f"summary footer: {type(exc).__name__}: {exc}")
                offset = len(data)
            else:
                summaries = {k: v for k, v in parsed.items() if k in records}
        if offset != len(data):
            raise StorageError(f"{path}: trailing bytes after records")
    return {
        "records": records,
        "failures": failures,
        "summaries": summaries,
        "config": config,
        "counters": {name: registry.counter(name).value for name in COUNTERS},
    }


def held_summaries(store: TrajectoryStore) -> dict:
    """The summaries a store holds (a footer's), without summarizing a
    record that has none: such a record's ``n_parts`` column reads 0."""
    return {key: store.summary(key) for key in store.object_ids()
            if store._records["n_parts"][store.row_of(key)]}


def chunked_load(path: Path, verify: str = "raise") -> dict:
    registry = Registry()
    store = TrajectoryStore.load(path, verify=verify, metrics=registry)
    return {
        "records": {key: store.record(key) for key in store.object_ids()},
        "failures": store.load_failures,
        "summaries": held_summaries(store),
        "config": store.summary_config,
        "counters": {name: registry.counter(name).value for name in COUNTERS},
    }


def outcome(loader, path: Path, verify: str):
    try:
        return loader(path, verify)
    except ReproError as exc:
        return (type(exc), str(exc))


def assert_same_load(path: Path) -> None:
    for verify in ("raise", "skip"):
        expected = outcome(reference_load, path, verify)
        actual = outcome(chunked_load, path, verify)
        if isinstance(actual, dict) and isinstance(expected, dict) \
                and expected["config"] is None:
            actual["config"] = None  # no footer read: the constructor's config
        assert actual == expected, f"verify={verify!r}"


@pytest.fixture(params=[None, 64], ids=["default-chunks", "64-byte-chunks"])
def chunk_bytes(request, monkeypatch):
    """Run each load both with the default chunk and with a chunk so
    small that every chunk holds one or two records."""
    if request.param is not None:
        monkeypatch.setattr(store_module, "_LOAD_CHUNK_BYTES", request.param)
    return request.param


# ---------------------------------------------------------------------- #
# Byte-stable files and lossless round trips
# ---------------------------------------------------------------------- #


class TestFileFormatUnchanged:
    def test_save_matches_the_pinned_fixture(self, tmp_path):
        path = tmp_path / "fixture.rsto"
        build_fixture_store().save(path)
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_fixture_loads_the_catalog_it_was_built_with(self, chunk_bytes, summarized):
        built = build_fixture_store()
        summarized.clear()
        loaded = TrajectoryStore.load(FIXTURE, cell_size_m=300.0)
        assert loaded.object_ids() == built.object_ids()
        for key in built.object_ids():
            assert loaded.record(key) == built.record(key)
            assert loaded.summary(key) == built.summary(key)
        assert summarized == []  # every summary is the footer's


class TestCatalogFromDecodedPoints:
    def test_every_mutation_path_records_decoded_extents(self, tmp_path):
        store = build_fixture_store()
        other = TrajectoryStore(cell_size_m=300.0)
        other.adopt_record(store.record("obj-04"))
        for source in (store, other):
            for key in source.object_ids():
                record = source.record(key)
                decoded = decode_trajectory(record.blob)
                assert record.start_time == decoded.start_time
                assert record.end_time == decoded.end_time
                assert record.bbox == decoded.bbox()
                assert record.n_stored_points == len(decoded)

    def test_each_mutation_decodes_its_blob_once(self, monkeypatch):
        """The catalog extents and summary of an inserted, appended or
        adopted blob all come from one decode of it."""
        decode_chains = codec_module.decode_chains
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return decode_chains(*args)

        monkeypatch.setattr(codec_module, "decode_chains", counting)
        monkeypatch.setattr(store_module, "decode_chains", counting)
        store = TrajectoryStore(summary_partition_points=4)
        store.insert(Trajectory(np.arange(9.0), np.arange(18.0).reshape(9, 2), "a"))
        assert calls == 1
        store.append("a", Trajectory(np.arange(10.0, 13.0), np.zeros((3, 2)), "a"))
        assert calls == 3  # the stored prefix, then the new blob
        TrajectoryStore().adopt_record(store.record("a"))
        assert calls == 4

    def test_merge_moves_columns_without_a_decode(self, monkeypatch, summarized):
        """``merge_from`` appends another store's columns as they are:
        records and summaries arrive equal, and no blob is decoded. Under
        another summary configuration the summaries are rebuilt on
        demand instead."""
        source = build_fixture_store()
        calls = 0
        decode_chains = codec_module.decode_chains

        def counting(*args):
            nonlocal calls
            calls += 1
            return decode_chains(*args)

        monkeypatch.setattr(codec_module, "decode_chains", counting)
        monkeypatch.setattr(store_module, "decode_chains", counting)
        merged = TrajectoryStore(cell_size_m=300.0, summary_partition_points=8)
        merged.insert(Trajectory(np.arange(3.0), np.zeros((3, 2)), "other"))
        calls = 0
        summarized.clear()
        assert merged.merge_from(source) == len(source)
        assert calls == 0
        assert merged.object_ids() == sorted([*source.object_ids(), "other"])
        for key in source.object_ids():
            assert merged.record(key) == source.record(key)
            assert merged.summary(key) == source.summary(key)
        assert summarized == []
        coarse = TrajectoryStore(summary_partition_points=64)
        coarse.merge_from(source)
        assert summarized == []
        for key in source.object_ids():
            assert coarse.summary(key) == build_summary(
                key, source.record(key).blob, coarse.summary_config
            )
        # Each rebuilt once, when first asked for.
        assert summarized == [source.record(key).blob for key in source.object_ids()]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(trajectories(min_points=1, max_points=30, coord_range=5_000.0),
                    min_size=1, max_size=8))
    def test_load_reproduces_the_saved_store(self, tmp_path, summarized, trips):
        store = TrajectoryStore(cell_size_m=250.0, summary_partition_points=4)
        for index, traj in enumerate(trips):
            store.insert(traj, object_id=f"t{index}", compressor=(
                TDTR(epsilon=20.0) if index % 2 else None
            ))
        path = tmp_path / "round.rsto"
        store.save(path)
        summarized.clear()
        loaded = TrajectoryStore.load(path, cell_size_m=250.0)
        assert loaded.object_ids() == store.object_ids()
        for key in store.object_ids():
            assert loaded.record(key) == store.record(key)
            assert loaded.summary(key) == store.summary(key)
        # Held summaries: the footer's, equal to the insert-time ones.
        assert summarized == []


# ---------------------------------------------------------------------- #
# Memory: a load builds columns, not objects
# ---------------------------------------------------------------------- #


class TestLoadMemory:
    #: Records of the pinned store: enough that per-record costs dominate.
    N_RECORDS = 2_000
    #: Held bytes per record beyond its blob and id: one row of the record
    #: and partition columns (88 B each), the id's row number in the
    #: index, the blob's object header and list slots. Measured at 304 B.
    ROW_BYTES = 360
    #: What a load may hold at its peak beyond the loaded store, the file
    #: and the footer's copy of the ids: one chunk's and one footer
    #: batch's temporaries. Measured at 474 KiB.
    TRANSIENT_BYTES = 768 * 1024

    def test_load_holds_columns_not_objects(self, tmp_path):
        """Load a churn-shaped store (12-point trips, one summary
        partition each) under tracemalloc: what it holds per record is
        its blob, its id and a few column rows, not the ~22 objects a
        record and its summary used to cost, and so is its peak."""
        rng = np.random.default_rng(12)
        store = TrajectoryStore(metrics=Registry())
        for i in range(self.N_RECORDS):
            t = rng.uniform(0.0, 80_000.0) + np.cumsum(rng.uniform(5.0, 15.0, 12))
            xy = rng.uniform(2_000.0, 38_000.0, 2) \
                + np.cumsum(rng.normal(0.0, 60.0, (12, 2)), axis=0)
            store.insert(Trajectory(t, xy, f"pre-{i:05d}"))
        path = tmp_path / "churn.rsto"
        store.save(path, durable=False)
        keys = store.object_ids()
        payload = sum(len(store.record(key).blob) + sys.getsizeof(key) for key in keys)
        del store
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = TrajectoryStore.load(path, metrics=Registry())
            held, peak = (value - before for value in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(loaded) == self.N_RECORDS
        held_bound = payload + self.ROW_BYTES * self.N_RECORDS
        assert held <= held_bound, f"{(held - payload) / self.N_RECORDS:.0f} B per record"
        footer_ids = sum(sys.getsizeof(key) + 8 for key in keys)
        assert peak <= held_bound + path.stat().st_size + footer_ids + self.TRANSIENT_BYTES


# ---------------------------------------------------------------------- #
# Corruption differential
# ---------------------------------------------------------------------- #


def _store_file(tmp_path: Path, version: int) -> Path:
    store = build_fixture_store()
    path = tmp_path / f"clean-v{version}.rsto"
    store.save(path)
    if version < 4:
        path.write_bytes(_downgrade(path.read_bytes(), version))
    return path


class TestCorruptionDifferential:
    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_clean_file(self, tmp_path, version, chunk_bytes):
        assert_same_load(_store_file(tmp_path, version))

    @pytest.mark.parametrize("version", [3, 4])
    def test_seeded_byte_flips(self, tmp_path, version, chunk_bytes):
        clean = _store_file(tmp_path, version).read_bytes()
        rng = np.random.default_rng(version)
        mutated = tmp_path / "flipped.rsto"
        for _ in range(60):
            data = bytearray(clean)
            data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
            mutated.write_bytes(bytes(data))
            assert_same_load(mutated)

    @pytest.mark.parametrize("version", [3, 4])
    def test_seeded_truncations(self, tmp_path, version, chunk_bytes):
        clean = _store_file(tmp_path, version).read_bytes()
        rng = np.random.default_rng(100 + version)
        mutated = tmp_path / "cut.rsto"
        for cut in rng.integers(0, len(clean), 15).tolist():
            mutated.write_bytes(clean[:cut])
            assert_same_load(mutated)

    @pytest.mark.parametrize("flip", [1 << bit for bit in range(8)])
    def test_empty_store_with_a_flipped_count(self, tmp_path, flip):
        """An empty store's footer whose object count no longer reads 0:
        the entries it promises are missing before the checksum."""
        path = tmp_path / "empty.rsto"
        TrajectoryStore().save(path)
        data = bytearray(path.read_bytes())
        data[data.index(b"RSUM") + 25] ^= flip
        path.write_bytes(bytes(data))
        assert_same_load(path)
        with pytest.raises(StorageError, match="summary footer"):
            TrajectoryStore.load(path)
        assert TrajectoryStore.load(path, verify="skip").load_failures[0].startswith(
            "summary footer: "
        )

    @pytest.mark.parametrize("extra", range(8))
    def test_cut_just_after_the_footer_count(self, tmp_path, extra):
        """The last four bytes, read as the footer checksum, follow the
        object count (``extra`` bytes of the first entry in between)."""
        clean = _store_file(tmp_path, 4).read_bytes()
        path = tmp_path / "cut.rsto"
        path.write_bytes(clean[: clean.index(b"RSUM") + 26 + extra + 4])
        assert_same_load(path)
        with pytest.raises(StorageError, match="summary footer"):
            TrajectoryStore.load(path)
        assert len(TrajectoryStore.load(path, verify="skip")) == 12


def _blob(object_id: bytes, points: bytes, n: int, *, time_res: float = 1e-3,
          coord_res: float = 0.01, crc: bool = True) -> bytes:
    """A version-2 codec blob assembled by hand, CRC trailer included."""
    out = bytearray(b"RTRJ\x02")
    encode_varint(len(object_id), out)
    out += object_id
    out += struct.pack("<dd", time_res, coord_res)
    encode_varint(n, out)
    out += points
    checksum = crc32(bytes(out))
    out += struct.pack("<I", checksum if crc else checksum ^ 1)
    return bytes(out)


def _points(*rows: tuple[int, int, int]) -> bytes:
    out = bytearray()
    for row in rows:
        for delta in row:
            encode_varint(zigzag(delta), out)
    return bytes(out)


GOOD = _points((1000, 5, -5), (20, 7, 9))

#: Blobs whose record checksums hold but whose contents do not: each
#: reaches the point decoder and must fail there, alone.
BAD_BLOBS = {
    "truncated-varint": _blob(b"bad", GOOD + b"\x80", 3),
    "trailing-bytes": _blob(b"bad", GOOD + b"\x00", 2),
    "no-points": _blob(b"bad", b"", 0),
    "missing-id": _blob(b"", GOOD, 2),
    "repeated-time": _blob(b"bad", _points((1000, 5, -5), (0, 7, 9)), 2),
    "falling-time": _blob(b"bad", _points((1000, 5, -5), (-3, 7, 9)), 2),
    "non-finite": _blob(b"bad", GOOD, 2, coord_res=float("inf")),
    "nan-resolution": _blob(b"bad", GOOD, 2, time_res=float("nan")),
    "varint-over-64-bits": _blob(b"bad", b"\xff" * 9 + b"\x02" + GOOD[3:], 2),
    "varint-over-10-bytes": _blob(b"bad", b"\xff" * 11 + b"\x01" + GOOD[3:], 2),
    "int64-overflow": _blob(
        b"bad", _points((2**62, 0, 0), (2**62, 0, 0)), 2
    ),
    "codec-crc": _blob(b"bad", GOOD, 2, crc=False),
    "bad-utf8-id": _blob(b"\xff\xfe", GOOD, 2),
    "duplicate-id": _blob(b"obj-03", GOOD, 2),
}


def _replace_record(data: bytes, target: int, blob: bytes) -> bytes:
    """Swap record ``target``'s blob for ``blob``, re-framing it with a
    valid record checksum (a v3/v4 file)."""
    out = bytearray(data[:9])
    (count,) = struct.unpack_from("<I", data, 5)
    offset = 9
    for index in range(count):
        n_raw, bound, blob_len = struct.unpack_from("<IdI", data, offset)
        framed = data[offset : offset + 16 + blob_len]
        if index == target:
            framed = struct.pack("<IdI", n_raw, bound, len(blob)) + blob
        out += framed + struct.pack("<I", crc32(framed))
        offset += 16 + blob_len + 4
    return bytes(out + data[offset:])


class TestBadRecordsFailAlone:
    @pytest.mark.parametrize("kind", sorted(BAD_BLOBS))
    @pytest.mark.parametrize("target", [0, 5, 11])
    def test_matches_reference(self, tmp_path, kind, target, chunk_bytes):
        clean = _store_file(tmp_path, 4).read_bytes()
        path = tmp_path / "crafted.rsto"
        path.write_bytes(_replace_record(clean, target, BAD_BLOBS[kind]))
        assert_same_load(path)

    @pytest.mark.parametrize("kind", sorted(set(BAD_BLOBS) - {"duplicate-id"}))
    def test_chunk_neighbours_survive(self, tmp_path, kind):
        clean_path = _store_file(tmp_path, 4)
        clean = TrajectoryStore.load(clean_path)
        path = tmp_path / "crafted.rsto"
        path.write_bytes(_replace_record(clean_path.read_bytes(), 5, BAD_BLOBS[kind]))
        store = TrajectoryStore.load(path, verify="skip")
        assert len(store.load_failures) == 1
        assert store.load_failures[0].startswith("record 5: ")
        lost = clean.object_ids()[5]
        assert store.object_ids() == [key for key in clean.object_ids() if key != lost]
        for key in store.object_ids():
            assert store.record(key) == clean.record(key)

    def test_int64_overflow_is_a_codec_error(self):
        with pytest.raises(ReproError, match="overflows 64 bits"):
            decode_trajectory(BAD_BLOBS["int64-overflow"])

    def test_wide_varint_is_a_codec_error(self):
        with pytest.raises(ReproError, match="varint too long"):
            decode_trajectory(BAD_BLOBS["varint-over-64-bits"])

    def test_clean_blob_round_trips(self):
        traj = Trajectory(np.array([1.0, 1.02]), np.array([[0.05, -0.05], [0.12, 0.04]]), "ok")
        assert decode_trajectory(encode_trajectory(traj)).object_id == "ok"
