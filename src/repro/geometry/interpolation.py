"""Temporal interpolation along piecewise-linear trajectories.

The paper's central idea (Sect. 3.2) is that a discarded point ``P_i``
should be compared against its *time-synchronized* position ``P'_i`` on the
approximating segment ``P_s``–``P_e``::

    Δe = t_e - t_s
    Δi = t_i - t_s
    x'_i = x_s + Δi/Δe (x_e - x_s)        (paper Eq. 1)
    y'_i = y_s + Δi/Δe (y_e - y_s)        (paper Eq. 2)

This module implements Eqs. 1–2 for one query time, the form
:meth:`~repro.trajectory.Trajectory.position_at` needs. The synchronized
distances and derived speeds that TD-TR / OPW-TR / OPW-SP test are
sweeps of :mod:`repro.core.kernels`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["time_ratio_position"]


def time_ratio_position(
    ts: float,
    ps: np.ndarray,
    te: float,
    pe: np.ndarray,
    ti: float,
) -> np.ndarray:
    """Synchronized position at time ``ti`` on the chord ``ps``–``pe``.

    Implements paper Eqs. 1–2. If the chord carries no time extent
    (``te == ts``) the start position is returned: the object is
    considered stationary over a zero-length interval.

    Args:
        ts: chord start time.
        ps: chord start position, shape ``(2,)``.
        te: chord end time.
        pe: chord end position, shape ``(2,)``.
        ti: query time; callers normally keep ``ts <= ti <= te`` but the
            linear form extrapolates naturally outside that range.
    """
    ps = np.asarray(ps, dtype=float)
    pe = np.asarray(pe, dtype=float)
    delta_e = te - ts
    if delta_e == 0.0:
        return ps.copy()
    ratio = (ti - ts) / delta_e
    return ps + ratio * (pe - ps)
