"""Shared lightweight value types.

The library's heavyweight data model lives in
:class:`repro.trajectory.Trajectory`; this module holds the small,
dependency-free value objects that flow between subsystems: a single
time-stamped position (:class:`Fix`) and a couple of type aliases.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Fix", "Seconds", "Meters", "MetersPerSecond"]

#: A point in time, in seconds (any epoch; only differences matter).
Seconds = float

#: A planar distance in metres.
Meters = float

#: A speed in metres per second.
MetersPerSecond = float


class Fix(NamedTuple):
    """A single time-stamped position ``(t, x, y)``.

    ``t`` is in seconds, ``x``/``y`` in metres in a local planar frame
    (see :mod:`repro.geometry.projection` for converting lon/lat input).
    The paper models a moving object data stream as a sequence of
    ``<t, x, y>`` records (Sect. 1); :class:`Fix` is that record.
    """

    t: Seconds
    x: Meters
    y: Meters
