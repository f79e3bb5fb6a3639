"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError`, so a
caller can catch every library-specific failure with one ``except`` clause
while still letting programming errors (``TypeError`` from misuse of the
Python API, etc.) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TrajectoryError",
    "EmptyTrajectoryError",
    "TimestampOrderError",
    "CompressionError",
    "ThresholdError",
    "CompressorSpecError",
    "CompressorParameterError",
    "UnknownCompressorError",
    "PipelineError",
    "CheckpointError",
    "StorageError",
    "ObjectNotFoundError",
    "CodecError",
    "CorruptRecordError",
    "StreamError",
    "ServeError",
    "WalError",
    "DataGenError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TrajectoryError(ReproError, ValueError):
    """A trajectory is structurally invalid (shape, dtype, content)."""


class EmptyTrajectoryError(TrajectoryError):
    """An operation required a non-empty trajectory but received none."""


class TimestampOrderError(TrajectoryError):
    """Timestamps are not strictly increasing."""


class CompressionError(ReproError):
    """A compression algorithm could not run on the given input."""


class ThresholdError(CompressionError, ValueError):
    """A threshold parameter is out of its valid domain."""


class CompressorSpecError(ReproError, ValueError):
    """A compressor spec string could not be parsed."""


class CompressorParameterError(CompressorSpecError, TypeError):
    """A spec names a parameter its algorithm does not take, or omits one
    it requires; raised alike by the batch and the online form. Also a
    :class:`TypeError`, which historical callers catch."""


class UnknownCompressorError(CompressorSpecError, KeyError):
    """A compressor name is not in the registry.

    Subclasses :class:`KeyError` because the failed operation is a
    registry lookup (and historical callers catch ``KeyError``); the
    message always lists the registered names.
    """

    def __str__(self) -> str:
        # KeyError.__str__ would repr-quote the message; report it plain.
        return Exception.__str__(self)


class PipelineError(ReproError):
    """The batch pipeline could not complete a run."""


class CheckpointError(PipelineError):
    """A run checkpoint is unusable: mismatched manifest or corrupt journal."""


class StorageError(ReproError):
    """The trajectory store could not complete an operation."""


class ObjectNotFoundError(StorageError, KeyError):
    """The requested object id is not present in the store."""


class CodecError(StorageError):
    """Encoded trajectory bytes are malformed or unsupported."""


class CorruptRecordError(CodecError):
    """A stored record failed its checksum: bytes were altered after write."""


class StreamError(ReproError):
    """A point stream violated its protocol (e.g. time went backwards)."""


class ServeError(ReproError):
    """The ingestion service refused a request or the wire protocol broke.

    Carries a machine-readable ``code`` (e.g. ``"rejected"``,
    ``"unknown-session"``, ``"bad-spec"``) that travels verbatim in the
    service's error responses, so clients can branch on the kind of
    failure without parsing English. ``retained`` carries the fixes a
    partially-applied batch append decided before the error, so a
    mid-batch failure never silently drops decisions the client is owed.
    """

    def __init__(
        self, message: str, code: str = "internal", *, retained: list | None = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retained: list = retained if retained is not None else []


class WalError(ServeError):
    """The serve tier's write-ahead log could not commit durably.

    Raised when a WAL write or fsync fails. Durability of everything
    staged since the last successful commit is unknown at that point, so
    the failure is *sticky*: the writer refuses further work until the
    process restarts and recovery replays the surviving segments
    (mirroring the fsync-failure stance of production databases). The
    wire code is ``"wal-failure"``.
    """

    def __init__(self, message: str, code: str = "wal-failure") -> None:
        super().__init__(message, code=code)


class DataGenError(ReproError):
    """The synthetic workload generator received unsatisfiable parameters."""
