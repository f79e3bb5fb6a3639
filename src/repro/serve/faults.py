"""Deterministic fault injection for the serve tier's durability paths.

The serve-path model (``tests/serve/test_serve_model.py``) needs to make
specific, repeatable things go wrong — an fsync that fails on exactly
the third commit, a process that dies the instant a record hits the
page cache.
Production code never pays for this: the hot paths hold an optional
:class:`FaultInjector` and call :meth:`FaultInjector.fire` at named
points only when one was injected.

Fault points currently wired in:

* ``wal.write`` — fired before the WAL writer appends staged bytes to
  the active segment;
* ``wal.fsync`` — fired before the WAL writer fsyncs a group commit;
* ``wal.commit`` — fired after a group commit becomes durable (the
  window between durability and acknowledgement; a ``kill`` here proves
  recovery restores state the client was never told about).

Each named point carries a :class:`Fault` that triggers on its Nth
firing (1-based), either raising an injected exception or killing the
process with ``SIGKILL`` — the two failure modes a crash-safe server
must survive.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field

__all__ = ["Fault", "FaultInjector"]


@dataclass
class Fault:
    """One scripted failure: trigger on the ``at``-th firing of a point.

    Args:
        at: 1-based firing count that triggers the fault (every earlier
            firing passes through untouched).
        error: exception instance to raise at the trigger; when ``None``
            the process is killed with ``SIGKILL`` instead — an honest
            crash, no cleanup handlers, no flushes.
        once: trigger only once (default); ``False`` keeps raising on
            every firing from ``at`` onwards (a disk that stays broken).
    """

    at: int = 1
    error: "BaseException | None" = None
    once: bool = True
    fired: int = field(default=0, init=False)
    triggered: int = field(default=0, init=False)

    def fire(self) -> None:
        """Count a firing; raise ``error`` (or SIGKILL) once armed."""
        self.fired += 1
        armed = self.fired == self.at or (not self.once and self.fired >= self.at)
        if not armed:
            return
        self.triggered += 1
        if self.error is None:  # pragma: no cover - the process dies here
            os.kill(os.getpid(), signal.SIGKILL)
        raise self.error


class FaultInjector:
    """A registry of named fault points, injectable into durability code.

    Usage::

        faults = FaultInjector()
        faults.set("wal.fsync", Fault(at=3, error=OSError("disk on fire")))
        ...
        faults.fire("wal.fsync")   # third call raises

    Points with no configured fault are free (one dict lookup).
    """

    def __init__(self) -> None:
        self._faults: dict[str, Fault] = {}

    def set(self, point: str, fault: Fault) -> "FaultInjector":
        """Arm ``fault`` at ``point``; returns self for chaining."""
        self._faults[point] = fault
        return self

    def get(self, point: str) -> "Fault | None":
        """Return the fault armed at ``point``, if any."""
        return self._faults.get(point)

    def fire(self, point: str) -> None:
        """Fire a named point: trigger its fault when one is armed."""
        fault = self._faults.get(point)
        if fault is not None:
            fault.fire()

    def summary(self) -> dict:
        """JSON-ready snapshot of every armed point (for diagnostics)."""
        return {
            point: {"at": f.at, "fired": f.fired, "triggered": f.triggered}
            for point, f in sorted(self._faults.items())
        }
