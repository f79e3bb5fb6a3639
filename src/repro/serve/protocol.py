"""Wire protocol of the trajectory-ingestion service.

Newline-delimited JSON over a byte stream: each message is one JSON
object on one ``\\n``-terminated line, UTF-8 encoded. Requests carry an
``op`` (one of :data:`OPS`) plus op-specific fields; responses echo the
``op`` (and ``session`` where applicable) and carry ``ok``. Error
responses set ``ok`` to false plus a machine-readable ``code`` from
:data:`ERROR_CODES` and a human-readable ``error``.

The full request/response catalogue, with examples, is in
``docs/SERVING.md``. Fixes travel as ``[t, x, y]`` triples of JSON
numbers — or, for high-throughput appends, as one flat
``[t0, x0, y0, t1, x1, y1, ...]`` array under ``fixes_flat``, which
decodes several times faster than a list of triples. Shortest
round-trip float serialization makes the wire exact either way, which
is what lets a served session reproduce the batch algorithm's output
bit for bit.

Serialization rides ``orjson`` when it is installed (several times
faster than the stdlib on append-sized payloads) and falls back to the
stdlib ``json`` module transparently — the wire bytes are equivalent
JSON in both cases.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, Sequence

try:  # optional accelerator; the stdlib path is always available
    import orjson as _orjson
except ImportError:  # pragma: no cover - depends on the environment
    _orjson = None  # type: ignore[assignment]

from repro.exceptions import ServeError
from repro.types import Fix

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "ERROR_CODES",
    "encode_message",
    "decode_line",
    "ok_response",
    "error_response",
    "parse_fix",
    "parse_fixes",
    "parse_flat_fixes",
    "render_fixes",
    "STATS_COUNTERS",
    "STATS_GAUGES",
    "SERVER_ONLY_STATS",
    "stats_fields",
]

#: Version announced in ``stats`` responses; bump on wire changes.
#: v2 added per-session append sequence numbers, the ``resume`` verb,
#: and the ``wal-failure`` / ``bad-seq`` error codes.
#: v3 added the read path: the ``query`` verb (position/window/nearest
#: over stored + live data), the ``summaries`` verb, and the
#: ``not-found`` error code.
PROTOCOL_VERSION = 3

#: Upper bound on one protocol line (requests *and* responses). Bounds
#: per-connection buffering; a batched append must stay under it.
MAX_LINE_BYTES = 1_048_576

#: The request verbs the server understands.
OPS = ("open", "append", "resume", "close", "flush", "stats", "query", "summaries")

#: Machine-readable error codes carried by ``ok: false`` responses.
ERROR_CODES = (
    "bad-json",        # the line was not a JSON object
    "bad-request",     # missing/ill-typed fields, unknown op, oversized line
    "bad-spec",        # compressor spec unparsable or not streamable
    "bad-fix",         # a fix was not [t, x, y] with finite numbers
    "bad-seq",         # append sequence number left a gap; resume first
    "rejected",        # admission control: session limit reached
    "duplicate-session",
    "unknown-session",
    "out-of-order",    # fix timestamp did not advance the session clock
    "not-found",       # query: unknown object, or time outside its interval
    "storage",         # the store refused the flush (e.g. id collision)
    "wal-failure",     # the write-ahead log could not commit durably
    "unavailable",     # sharded tier: the owning worker is down; retry later
    "timeout",         # client-side only: no response within the deadline
    "internal",
)

#: Registry counters and gauges the ``stats`` verb reports as top-level
#: fields under their own names (:func:`stats_fields`); a server declares
#: them when it is built, so its export lists them from the start.
STATS_COUNTERS = (
    "sessions_opened", "sessions_rejected", "sessions_evicted", "sessions_flushed",
    "sessions_recovered", "sessions_discarded", "sessions_renegotiated",
    "sessions_admitted_degraded", "budget_renegotiations",
    "fixes_in", "fixes_retained", "fixes_evicted", "fixes_flushed",
    "queries", "query_decoded_records", "query_decoded_bytes", "requests_failed",
    "connections_opened", "connections_closed",
)
STATS_GAUGES = ("queue_depth", "query_prune_ratio")

#: What a fleet leaves out: its connections are the router's own (the
#: ``router`` section), and a prune ratio does not add up across shards.
SERVER_ONLY_STATS = ("connections_opened", "connections_closed", "query_prune_ratio")


def encode_message(message: dict) -> bytes:
    """Serialize one protocol message to its wire line (with newline).

    ``allow_nan=False`` keeps the wire format interoperable JSON: a
    non-finite float in a message is a programming error, surfaced here.
    The orjson fast path serializes non-finite floats as ``null``, so any
    payload containing ``null`` is re-encoded through the stdlib, which
    raises on NaN/inf and writes identical bytes for a legitimate None.
    """
    if _orjson is not None:
        try:
            payload = _orjson.dumps(message)
        except TypeError:
            pass  # e.g. tuples; the stdlib encoder handles them
        else:
            if b"null" not in payload:
                return payload + b"\n"
    return (
        json.dumps(message, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one wire line into a message dict.

    Raises:
        ServeError: (code ``bad-json`` / ``bad-request``) for non-JSON
            bytes or a JSON value that is not an object.
    """
    try:
        # orjson.JSONDecodeError subclasses json.JSONDecodeError, so the
        # except clause covers both decoders.
        message = _orjson.loads(line) if _orjson is not None else json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"undecodable protocol line: {exc}", code="bad-json") from None
    if not isinstance(message, dict):
        raise ServeError(
            f"protocol messages are JSON objects, got {type(message).__name__}",
            code="bad-request",
        )
    return message


def ok_response(op: str, session: str | None = None, **fields: object) -> dict:
    """A successful response for ``op`` (echoing ``session`` if given)."""
    response: dict = {"ok": True, "op": op}
    if session is not None:
        response["session"] = session
    response.update(fields)
    return response


def error_response(
    op: str | None,
    code: str,
    message: str,
    session: str | None = None,
    **fields: object,
) -> dict:
    """An ``ok: false`` response with a :data:`ERROR_CODES` code."""
    response: dict = {"ok": False, "op": op, "code": code, "error": message}
    if session is not None:
        response["session"] = session
    response.update(fields)
    return response


def parse_fix(value: object) -> Fix:
    """Validate one wire fix (``[t, x, y]``, finite numbers) into a Fix.

    Raises:
        ServeError: (code ``bad-fix``) for wrong shape, wrong types or
            non-finite values.
    """
    if (
        not isinstance(value, Sequence)
        or isinstance(value, (str, bytes))
        or len(value) != 3
    ):
        raise ServeError(f"a fix is a [t, x, y] triple, got {value!r}", code="bad-fix")
    try:
        t, x, y = (float(part) for part in value)
    except (TypeError, ValueError):
        raise ServeError(
            f"fix components must be numbers, got {value!r}", code="bad-fix"
        ) from None
    if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
        raise ServeError(f"non-finite fix {value!r}", code="bad-fix")
    return Fix(t, x, y)


def parse_fixes(values: object) -> list[Fix]:
    """Validate a wire list of ``[t, x, y]`` triples into Fixes.

    The append hot path: a single comprehension handles the well-formed
    case; anything irregular falls back to per-item :func:`parse_fix`
    so the error message names the offending fix.

    Raises:
        ServeError: (``bad-request``) when ``values`` is not a list,
            (``bad-fix``) for a malformed or non-finite fix.
    """
    if not isinstance(values, list):
        raise ServeError(
            f"'fixes' must be a list of [t, x, y] triples, "
            f"got {type(values).__name__}",
            code="bad-request",
        )
    # The all-lists guard keeps oddities (a 3-char numeric string would
    # unpack) on the slow path, where parse_fix rejects them precisely.
    if not all(type(value) is list for value in values):
        return [parse_fix(value) for value in values]
    try:
        fixes = [Fix(float(t), float(x), float(y)) for t, x, y in values]
    except (TypeError, ValueError):
        return [parse_fix(value) for value in values]
    # A single running sum detects NaN/inf anywhere in the batch at
    # C speed; only then is the per-fix scan (with its precise error)
    # worth paying. Overflow of legitimately finite values also lands
    # here and is cleared by the rescan.
    total = 0.0
    for fix in fixes:
        total += fix[0] + fix[1] + fix[2]
    if not math.isfinite(total):
        return [parse_fix(value) for value in values]
    return fixes


def parse_flat_fixes(values: object) -> list[Fix]:
    """Validate a flat ``[t0, x0, y0, t1, ...]`` wire array into Fixes.

    The fastest batch form: one JSON array of plain numbers decodes in a
    fraction of the time a list of triples takes, and the triples are
    rebuilt here with ``Fix._make`` over a strided zip.

    Raises:
        ServeError: (``bad-fix``) when the array is not a list, its
            length is not a multiple of 3, or any component is not a
            finite number.
    """
    if not isinstance(values, list):
        raise ServeError(
            f"'fixes_flat' must be a flat list of numbers, "
            f"got {type(values).__name__}",
            code="bad-fix",
        )
    if len(values) % 3:
        raise ServeError(
            f"'fixes_flat' length must be a multiple of 3, got {len(values)}",
            code="bad-fix",
        )
    try:
        total = sum(values)
    except TypeError:
        raise ServeError(
            "fix components must be numbers", code="bad-fix"
        ) from None
    if not isinstance(total, (int, float)) or not math.isfinite(total):
        # NaN/inf somewhere — or overflow of legitimate values; rescan
        # to tell the two apart and name the culprit.
        for value in values:
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ServeError(f"non-finite fix component {value!r}", code="bad-fix")
    strided = iter(values)
    return list(map(Fix._make, zip(strided, strided, strided)))


def render_fixes(fixes: Iterable[Fix]) -> list[list[float]]:
    """Render fixes as wire triples (the inverse of :func:`parse_fix`)."""
    return [[fix.t, fix.x, fix.y] for fix in fixes]


def stats_fields(export: Mapping[str, Mapping], *, fleet: bool = False) -> dict:
    """The top-level ``stats`` fields a registry export holds.

    Every :data:`STATS_COUNTERS` counter and :data:`STATS_GAUGES` gauge
    under its own name (0 when the export lacks it), and
    ``fixes_in_by_algorithm`` / ``fixes_evicted_by_algorithm`` from the
    ``fixes_in.<algorithm>`` / ``fixes_evicted.<algorithm>`` counters.
    ``export`` is a :meth:`repro.obs.Registry.to_dict` export or, with
    ``fleet`` (which leaves out the :data:`SERVER_ONLY_STATS`), the
    :func:`repro.obs.merge_shard_metrics` of a fleet's shards, whose
    plain names hold the fleet-wide sums.
    """
    counters = export.get("counters", {})
    gauges = export.get("gauges", {})
    fields = {name: counters.get(name, 0) for name in STATS_COUNTERS}
    fields.update((name, gauges.get(name, 0.0)) for name in STATS_GAUGES)
    for family in ("fixes_in", "fixes_evicted"):
        prefix = f"{family}."
        fields[f"{family}_by_algorithm"] = {
            name[len(prefix):]: value
            for name, value in counters.items()
            if name.startswith(prefix)
        }
    if fleet:
        for name in SERVER_ONLY_STATS:
            del fields[name]
    return fields
