"""Durable file I/O primitives: atomic writes and checksums.

Every file the library persists (store files, codec blobs inside them,
trajectory CSV/JSON/GPX, metrics and report JSON, checkpoint manifests)
funnels through :func:`write_atomic`, so a crash mid-write can never
leave a half-written file under the final name: data lands in a
temporary sibling, is fsynced, and is moved into place with the
all-or-nothing :func:`os.replace`. The checksum helpers are the shared
currency of the corruption-detection layer (codec record CRCs, store
record CRCs, checkpoint journal line CRCs).
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import IO, Any, Iterable

try:
    import fcntl
except ImportError:  # not POSIX: files are not locked
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "crc32",
    "crc32_text",
    "encode_crc_line",
    "decode_crc_line",
    "fsync_directory",
    "lock_file",
    "write_atomic",
    "write_atomic_json",
    "parse_on_malformed",
    "ON_MALFORMED_MODES",
]

#: The file-level malformed-input policies accepted by the readers and
#: the batch engine: ``"raise"``, ``"skip"``, or ``"quarantine:<dir>"``.
ON_MALFORMED_MODES = ("raise", "skip", "quarantine")


def crc32(data: bytes, value: int = 0) -> int:
    """Unsigned CRC-32 of ``data`` (the library's standard checksum);
    ``value`` is the CRC of bytes that precede it, to continue a sum."""
    return zlib.crc32(data, value) & 0xFFFFFFFF


def crc32_text(text: str) -> int:
    """Unsigned CRC-32 of a string's UTF-8 encoding."""
    return crc32(text.encode("utf-8"))


def encode_crc_line(payload: str) -> str:
    """Render one append-only log line: ``<crc32 hex8> <payload>\\n``.

    The shared line format of every append-only log in the library (the
    pipeline's checkpoint journal, the serve tier's write-ahead log): a
    fixed-width CRC-32 of the payload, one space, the payload, one
    newline. ``payload`` must not contain a newline.
    """
    return f"{crc32_text(payload):08x} {payload}\n"


def decode_crc_line(line: str) -> "str | None":
    """Validate one CRC-prefixed log line; returns its payload.

    Returns ``None`` for any damage — short line, malformed CRC field,
    checksum mismatch — which on an append-only log distinguishes a
    torn tail (droppable: the write never completed) from intact
    entries. The caller decides whether damage elsewhere is fatal.
    """
    if len(line) < 10 or line[8] != " ":
        return None
    crc_text, payload = line[:8], line[9:]
    try:
        stored_crc = int(crc_text, 16)
    except ValueError:
        return None
    if stored_crc != crc32_text(payload):
        return None
    return payload


def fsync_directory(directory: Path) -> None:
    """Flush a directory entry to disk (no-op where unsupported).

    After :func:`os.replace` the new *name* lives in the directory; on
    POSIX the rename itself is only durable once the directory is
    fsynced. Platforms that cannot fsync a directory (e.g. Windows)
    silently skip.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def lock_file(path: "str | Path") -> "IO[bytes] | None":
    """Take an exclusive, non-blocking ``flock`` on the file ``path``.

    The file is created when absent and never written. Returns the open
    file, whose closing (or the process's exit) releases the lock, or
    ``None`` when another open file already holds it. Without POSIX
    ``fcntl`` nothing is locked and the open file is still returned.
    """
    handle = open(path, "ab")
    if fcntl is not None:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            handle.close()
            return None
    return handle


def write_atomic(
    path: "str | Path",
    data: "bytes | bytearray | str | Iterable[bytes]",
    *,
    encoding: str = "utf-8",
    durable: bool = True,
) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + fsync + replace).

    Readers either see the complete old file or the complete new file,
    never a torn mixture — even across a crash or power loss mid-write.

    Args:
        path: final destination; the temporary file is created next to
            it so the final :func:`os.replace` stays on one filesystem.
        data: bytes or a bytearray, a string encoded with ``encoding``,
            or an iterable of byte chunks written one after another.
        encoding: text encoding for string data.
        durable: fsync the file (and its directory) before/after the
            rename. ``False`` keeps atomicity but skips the flushes —
            useful for tests and scratch output.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode(encoding)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if isinstance(data, (bytes, bytearray)):
                handle.write(data)
            else:
                handle.writelines(data)
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(path.parent)


def write_atomic_json(
    path: "str | Path", payload: Any, *, indent: int | None = 2, durable: bool = True
) -> None:
    """Serialize ``payload`` as JSON and :func:`write_atomic` it."""
    write_atomic(
        path, json.dumps(payload, indent=indent, sort_keys=False) + "\n",
        durable=durable,
    )


def parse_on_malformed(value: str) -> tuple[str, "Path | None"]:
    """Parse an ``on_malformed`` policy string.

    Returns:
        ``(mode, quarantine_dir)`` where mode is ``"raise"``, ``"skip"``
        or ``"quarantine"`` and the directory is set only for the latter.

    Raises:
        ValueError: for unknown policies or a quarantine with no dir.
    """
    text = str(value).strip()
    if text in ("raise", "skip"):
        return text, None
    if text.startswith("quarantine:"):
        directory = text.split(":", 1)[1].strip()
        if not directory:
            raise ValueError("quarantine policy needs a directory: 'quarantine:<dir>'")
        return "quarantine", Path(directory)
    raise ValueError(
        f"unknown on_malformed policy {value!r}; "
        f"use 'raise', 'skip' or 'quarantine:<dir>'"
    )
