"""Trajectory-ingestion service: online compression behind a socket.

The serving layer the ROADMAP's north star asks for: trackers connect
over TCP, speak a newline-delimited JSON protocol
(:mod:`repro.serve.protocol`), and stream fixes into per-object online
compressors; retained points stream back the moment the opening window
decides them, and closed sessions are flushed atomically into a
:class:`~repro.storage.store.TrajectoryStore`. See ``docs/SERVING.md``
for the protocol spec and operational semantics.

Exports resolve on first use, so a router process, which imports
:mod:`repro.serve.router`, loads neither the server nor the sessions
and the compute stack behind them.
"""

from __future__ import annotations

from typing import Any

_HOMES = {
    "MAX_LINE_BYTES": "repro.serve.protocol",
    "PROTOCOL_VERSION": "repro.serve.protocol",
    "ServeClient": "repro.serve.client",
    "Session": "repro.serve.session",
    "SessionManager": "repro.serve.session",
    "TrajectoryServer": "repro.serve.server",
}

__all__ = [*_HOMES]


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)
