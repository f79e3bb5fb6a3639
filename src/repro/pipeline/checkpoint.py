"""Checkpointed, resumable batch runs.

A checkpoint directory makes a :class:`~repro.pipeline.engine.BatchEngine`
run survive being killed at any instant and resume where it left off:

* ``manifest.json`` — written atomically when the run starts; pins what
  the run *is* (compressor spec, failure policy, evaluation depth,
  malformed-input policy, the ordered item ids). A resume under a
  different configuration or input set fails loudly with
  :class:`~repro.exceptions.CheckpointError` rather than silently mixing
  two different runs' outputs.
* ``journal.jsonl`` — append-only log of per-item outcomes, one JSON
  entry per line, each line prefixed with its own CRC-32 and flushed +
  fsynced as it is written. A crash can only ever tear the *last* line;
  :meth:`RunCheckpoint.completed` tolerates exactly that (a torn tail is
  dropped and the item reruns) while corruption anywhere earlier —
  which no crash can produce — fails loudly.

Because the engine's algorithms are deterministic and the journal stores
each completed item's full sample (selected indices included), a resumed
run reassembles outcomes that are byte-identical to an uninterrupted
run's — the crash-recovery tests assert exactly this.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any

from repro.exceptions import CheckpointError
from repro.io_util import decode_crc_line, encode_crc_line, write_atomic_json

__all__ = ["RunCheckpoint", "read_manifest"]

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_FORMAT = 1


def _without_engine(compressor: str) -> str:
    """A compressor label minus its ``engine`` entry, if it has one.

    Manifests written while compressors still took an ``engine``
    carry it: ``td-tr:epsilon=30,engine=python`` from a spec,
    ``TDTR(engine='numpy', epsilon=30.0, traversal='iterative')`` from
    an instance. The engine never changed a result, so such a run
    resumes as the same run without it.
    """
    if "engine=" not in compressor:
        return compressor
    if compressor.endswith(")"):
        head, _, args = compressor[:-1].partition("(")
        kept = [arg for arg in args.split(", ") if not arg.startswith("engine=")]
        return f"{head}({', '.join(kept)})"
    head, _, params = compressor.partition(":")
    kept = [param for param in params.split(",") if not param.startswith("engine=")]
    return f"{head}:{','.join(kept)}" if kept else head


def read_manifest(directory: "str | Path") -> dict[str, Any]:
    """Read a checkpoint's manifest (what the run was configured as).

    The CLI's ``--resume`` path uses this to rebuild the engine with the
    original configuration instead of trusting re-typed flags. An
    ``engine`` entry in the stored compressor label is dropped (see
    :func:`_without_engine`).

    Raises:
        CheckpointError: missing or unreadable manifest.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CheckpointError(
            f"{directory}: not a checkpoint directory (no {MANIFEST_NAME})"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if isinstance(manifest.get("compressor"), str):
        manifest["compressor"] = _without_engine(manifest["compressor"])
    return manifest


class RunCheckpoint:
    """One run's manifest + append-only outcome journal.

    Use :meth:`open` — it creates the directory and manifest on a fresh
    run, and validates the manifest on a resume. :meth:`completed` then
    returns the journalled outcomes to skip, and :meth:`record` appends
    each new outcome durably as the run progresses.
    """

    def __init__(self, directory: Path, manifest: dict[str, Any]) -> None:
        self.directory = directory
        self.manifest = manifest
        self._journal: IO[str] | None = None

    @classmethod
    def open(
        cls, directory: "str | Path", manifest: dict[str, Any]
    ) -> "RunCheckpoint":
        """Create (fresh run) or validate (resume) a checkpoint directory.

        Args:
            directory: the checkpoint directory; created if absent.
            manifest: what this run is configured as. On resume, every
                field must equal the stored manifest.

        Raises:
            CheckpointError: the directory holds a manifest for a
                *different* run (any mismatched field aborts, listing
                the differing fields).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {"format": MANIFEST_FORMAT, **manifest}
        path = directory / MANIFEST_NAME
        if path.exists():
            existing = read_manifest(directory)
            mismatched = sorted(
                key
                for key in set(existing) | set(manifest)
                if existing.get(key) != manifest.get(key)
            )
            if mismatched:
                raise CheckpointError(
                    f"{directory}: checkpoint belongs to a different run — "
                    f"mismatched manifest field(s): {', '.join(mismatched)}. "
                    f"Use a fresh checkpoint directory, or resume with the "
                    f"original configuration."
                )
        else:
            write_atomic_json(path, manifest)
        return cls(directory, manifest)

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    def completed(self) -> dict[int, dict[str, Any]]:
        """Journalled outcomes by input index, for skipping on resume.

        A torn final line (the only damage a crash can cause, since
        every line is flushed and fsynced before the next begins) is
        dropped silently — that item simply reruns. A bad CRC or
        unparsable JSON on any *earlier* line means the journal was
        altered outside the append protocol and raises.

        Raises:
            CheckpointError: corrupt journal line before the tail, or
                duplicate/negative indices.
        """
        try:
            text = self.journal_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return {}
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        entries: dict[int, dict[str, Any]] = {}
        for lineno, line in enumerate(lines):
            is_tail = lineno == len(lines) - 1
            entry = self._parse_line(line)
            if entry is None:
                if is_tail:
                    break  # torn tail: the crash interrupted this write
                raise CheckpointError(
                    f"{self.journal_path}: corrupt journal line {lineno + 1} "
                    f"(bad checksum or malformed JSON) — the journal was "
                    f"modified outside the append protocol"
                )
            index = entry.get("index")
            if not isinstance(index, int) or index < 0:
                raise CheckpointError(
                    f"{self.journal_path}: line {lineno + 1} has no valid "
                    f"item index"
                )
            if index in entries:
                raise CheckpointError(
                    f"{self.journal_path}: duplicate entry for item index "
                    f"{index} (line {lineno + 1})"
                )
            entries[index] = entry
        return entries

    @staticmethod
    def _parse_line(line: str) -> "dict[str, Any] | None":
        """One ``<crc8hex> <json>`` journal line, or None if damaged."""
        payload = decode_crc_line(line)
        if payload is None:
            return None
        try:
            entry = json.loads(payload)
        except json.JSONDecodeError:
            return None
        return entry if isinstance(entry, dict) else None

    def record(self, entry: dict[str, Any]) -> None:
        """Durably append one outcome entry to the journal.

        The line is flushed and fsynced before returning: once
        :meth:`record` returns, a crash cannot lose the entry, and
        because fsync orders the lines, a crash *during* a record can
        only tear the final line.
        """
        payload = json.dumps(entry, separators=(",", ":"), sort_keys=True)
        if self._journal is None:
            self._journal = self.journal_path.open("a", encoding="utf-8")
        self._journal.write(encode_crc_line(payload))
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def close(self) -> None:
        """Close the journal handle (safe to call repeatedly)."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "RunCheckpoint":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
