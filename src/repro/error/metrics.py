"""Compression accounting and composite quality reports.

Combines the error notions of this package with size accounting into one
:class:`CompressionReport` — the record type the experiment harness and
the benchmarks aggregate into the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from repro.core import kernels
from repro.core.base import CompressionResult
from repro.error.perpendicular import (
    max_perpendicular_error,
    mean_perpendicular_error,
)
from repro.error.synchronized import (
    max_synchronized_error,
    mean_synchronized_error,
)
from repro.trajectory.trajectory import Trajectory

__all__ = [
    "compression_percent",
    "compression_ratio",
    "mean_speed_error",
    "CompressionReport",
    "evaluate_compression",
]


def compression_percent(n_original: int, n_kept: int) -> float:
    """Percentage of data points removed — the paper's "compression (%)".

    ``0`` means nothing was removed; ``90`` means nine of every ten points
    were discarded (the best values in the paper's figures).
    """
    if n_original <= 0:
        raise ValueError(f"original size must be positive, got {n_original}")
    if not 0 < n_kept <= n_original:
        raise ValueError(
            f"kept size must be in 1..{n_original}, got {n_kept}"
        )
    return 100.0 * (1.0 - n_kept / n_original)


def compression_ratio(n_original: int, n_kept: int) -> float:
    """Size ratio original/kept (``>= 1``); 10 means 10x smaller."""
    if n_kept <= 0:
        raise ValueError(f"kept size must be positive, got {n_kept}")
    return n_original / n_kept


def mean_speed_error(original: Trajectory, approx: Trajectory) -> float:
    """Time-weighted mean absolute difference of the derived speed profiles.

    The SP algorithms (Sect. 3.3) retain points where speed changes; this
    metric quantifies how well an approximation preserves the speed
    profile. Both profiles are piecewise-constant per segment; the
    comparison is evaluated on the original's segments (whose time extents
    weight the average).
    """
    if len(original) < 2 or len(approx) < 2:
        raise ValueError("speed error needs >= 2 points on both trajectories")
    # Midpoint of each original segment determines which approx segment's
    # speed applies (approx timestamps are a subseries of the original's,
    # so no original segment straddles an approx breakpoint).
    t = original.t
    midpoints = (t[:-1] + t[1:]) / 2.0
    idx = np.clip(
        np.searchsorted(approx.t, midpoints, side="right") - 1, 0, len(approx) - 2
    )
    weights = t[1:] - t[:-1]
    original_speeds = kernels.segment_speeds(*original.columns)
    approx_speeds = kernels.segment_speeds(*approx.columns)
    abs_diff = np.abs(original_speeds - approx_speeds[idx])
    return math.fsum((abs_diff * weights).tolist()) / math.fsum(weights.tolist())


@dataclass(frozen=True, slots=True)
class CompressionReport:
    """All quality numbers for one (original, compressed) pair."""

    n_original: int
    n_kept: int
    mean_sync_error_m: float
    max_sync_error_m: float
    mean_perp_error_m: float
    max_perp_error_m: float
    mean_speed_error_ms: float

    @property
    def compression_percent(self) -> float:
        return compression_percent(self.n_original, self.n_kept)

    @property
    def compression_ratio(self) -> float:
        return compression_ratio(self.n_original, self.n_kept)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.n_original} -> {self.n_kept} points "
            f"({self.compression_percent:.1f}% removed), "
            f"sync err mean {self.mean_sync_error_m:.1f} m / "
            f"max {self.max_sync_error_m:.1f} m, "
            f"perp err mean {self.mean_perp_error_m:.1f} m"
        )

    def to_dict(self) -> dict[str, float | int]:
        """JSON-ready dict of all fields plus the derived size ratios.

        Round-trips through :meth:`from_dict`; the derived entries are
        for human consumers and are ignored on the way back in.
        """
        out: dict[str, float | int] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        out["compression_percent"] = self.compression_percent
        out["compression_ratio"] = self.compression_ratio
        return out

    @classmethod
    def from_dict(cls, data: dict[str, float | int]) -> "CompressionReport":
        """Rebuild a report from :meth:`to_dict` output (extras ignored).

        Raises:
            ValueError: when a required field is missing.
        """
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in data]
        if missing:
            raise ValueError(f"CompressionReport dict is missing {missing}")
        return cls(**{name: data[name] for name in names})


def evaluate_compression(
    original: Trajectory | CompressionResult | tuple[Trajectory, Trajectory],
    approx: Trajectory | None = None,
) -> CompressionReport:
    """Compute the full quality report for a compressed trajectory.

    Accepts either the classic ``(original, approx)`` pair of
    trajectories (as two arguments or one tuple) or a
    :class:`~repro.core.base.CompressionResult` directly —
    ``evaluate_compression(TDTR(epsilon=30).compress(traj))``.

    Args:
        original: the raw trajectory, a ``(original, approx)`` tuple, or
            a :class:`~repro.core.base.CompressionResult`.
        approx: the compression — timestamps must be a subseries of the
            original's and cover the same interval (what every compressor
            in :mod:`repro.core` produces). Omit when ``original`` is a
            result or a pair.
    """
    if approx is None:
        if isinstance(original, CompressionResult):
            original, approx = original.original, original.compressed
        elif isinstance(original, tuple) and len(original) == 2:
            original, approx = original
        else:
            raise TypeError(
                "evaluate_compression needs (original, approx) trajectories "
                "or a CompressionResult"
            )
    return CompressionReport(
        n_original=len(original),
        n_kept=len(approx),
        mean_sync_error_m=mean_synchronized_error(original, approx),
        max_sync_error_m=max_synchronized_error(original, approx),
        mean_perp_error_m=mean_perpendicular_error(original, approx),
        max_perp_error_m=max_perpendicular_error(original, approx),
        mean_speed_error_ms=mean_speed_error(original, approx),
    )
