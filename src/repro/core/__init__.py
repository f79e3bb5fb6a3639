"""Trajectory compression algorithms.

The paper's contributions:

* :class:`TDTR` — top-down time-ratio (Douglas–Peucker with synchronized
  distance), Sect. 3.2;
* :class:`OPWTR` — opening-window time-ratio, Sect. 3.2;
* :class:`OPWSP` / :class:`TDSP` — the spatiotemporal class adding the
  speed-difference criterion, Sect. 3.3 (with
  :func:`~repro.core.spt.spt_paper_indices` as the faithful pseudocode
  port).

The spatial baselines it compares against:

* :class:`DouglasPeucker` (NDP), :class:`NOPW`, :class:`BOPW` — Sects.
  2.1–2.2;
* :class:`EveryIth`, :class:`DistanceThreshold`, :class:`AngularChange`,
  :class:`SlidingWindow`, :class:`BottomUp` — the rest of the Sect. 2
  taxonomy.

All algorithms select a subseries of the input's data points and always
retain the first and last point. Use :func:`make_compressor` for
name-based construction.

Every discard criterion is evaluated through :mod:`repro.core.kernels`,
which runs each sweep over a point range as a scalar loop or a numpy
kernel depending on the range's length. The two sides are bit-identical,
so the choice never changes a result; the differential conformance suite
pins this.
"""

from repro.core.angular import AngularChange
from repro.core.base import CompressionResult, Compressor
from repro.core.bottom_up import BottomUp
from repro.core.budget import BottomUpBudget, BottomUpTotalError, TDTRBudget
from repro.core.dead_reckoning import (
    DeadReckoner,
    DeadReckoning,
    dead_reckoning_indices,
)
from repro.core.douglas_peucker import (
    DouglasPeucker,
    perpendicular_segment_error,
    top_down_indices,
    top_down_indices_recursive,
)
from repro.core.one_pass import (
    CISED,
    OPERB,
    PolygonRegion,
    RectangleRegion,
    one_pass_indices,
)
from repro.core.opening_window import BOPW, NOPW, OpeningWindow
from repro.core.opw_tr import OPWTR
from repro.core.registry import (
    COMPRESSORS,
    CompressorSpec,
    available_compressors,
    make_compressor,
    parse_compressor_spec,
)
from repro.core.sliding_window import SlidingWindow
from repro.core.spt import OPWSP, TDSP, speed_violations, spt_paper_indices
from repro.core.td_tr import TDTR, synchronized_segment_error
from repro.core.uniform import DistanceThreshold, EveryIth

__all__ = [
    "AngularChange",
    "BOPW",
    "BottomUp",
    "BottomUpBudget",
    "BottomUpTotalError",
    "CISED",
    "COMPRESSORS",
    "CompressionResult",
    "Compressor",
    "CompressorSpec",
    "DeadReckoner",
    "DeadReckoning",
    "DistanceThreshold",
    "DouglasPeucker",
    "EveryIth",
    "NOPW",
    "OPERB",
    "OPWSP",
    "OPWTR",
    "OpeningWindow",
    "PolygonRegion",
    "RectangleRegion",
    "SlidingWindow",
    "TDSP",
    "TDTR",
    "TDTRBudget",
    "available_compressors",
    "dead_reckoning_indices",
    "make_compressor",
    "one_pass_indices",
    "parse_compressor_spec",
    "perpendicular_segment_error",
    "speed_violations",
    "spt_paper_indices",
    "synchronized_segment_error",
    "top_down_indices",
    "top_down_indices_recursive",
]
