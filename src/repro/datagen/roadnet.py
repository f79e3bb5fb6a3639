"""Synthetic road networks for the GPS workload generator.

The paper's trajectories come from a car "which travelled different roads
in urban and rural areas"; movement restricted to a transportation
infrastructure with linear characteristics (Sect. 2). We model that
infrastructure as a perturbed lattice: a grid of intersections with
jittered positions, 4-neighbour street edges, and a hierarchy of road
classes (local / arterial / highway) carrying different speed limits.
The jitter breaks the grid's perfect collinearity so simplification
algorithms see realistic near-straight-but-not-straight runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.exceptions import DataGenError

__all__ = ["SPEED_LIMITS_MS", "Road", "RoadNetwork"]

#: An intersection, ``(row, col)`` on the lattice.
Node = tuple[int, int]

#: Speed limits per road class, metres/second (50, 70, 100 km/h).
SPEED_LIMITS_MS: dict[str, float] = {
    "local": 50.0 / 3.6,
    "arterial": 70.0 / 3.6,
    "highway": 100.0 / 3.6,
}


class Road(NamedTuple):
    """The street between two neighbouring intersections, either way.

    ``length`` is in metres, ``speed_limit`` in m/s, ``road_class`` one
    of :data:`SPEED_LIMITS_MS`'s keys and ``travel_time`` the seconds it
    takes at the limit (the routing weight).
    """

    length: float
    speed_limit: float
    road_class: str
    travel_time: float


@dataclass
class RoadNetwork:
    """A planar road graph with positions and speed limits.

    Nodes are ``(row, col)`` tuples at ``(x, y)`` positions in metres.
    ``roads[u][v]`` is the :class:`Road` joining ``u`` to its neighbour
    ``v`` (the same object as ``roads[v][u]``); each node lists its
    neighbours in the order their roads were laid, which fixes how the
    route planner breaks ties between equally fast paths.
    """

    roads: dict[Node, dict[Node, Road]] = field(repr=False)
    spacing_m: float
    rows: int
    cols: int
    _positions: dict[Node, np.ndarray] = field(repr=False, default_factory=dict)

    @classmethod
    def grid(
        cls,
        rows: int,
        cols: int,
        spacing_m: float,
        rng: np.random.Generator,
        jitter_frac: float = 0.25,
        arterial_every: int = 5,
        highway_rows: tuple[int, ...] = (),
    ) -> "RoadNetwork":
        """Build a jittered lattice network.

        Args:
            rows: number of east-west street lines (``>= 2``).
            cols: number of north-south street lines (``>= 2``).
            spacing_m: nominal block size in metres.
            rng: random generator driving the jitter.
            jitter_frac: node positions are displaced uniformly by up to
                this fraction of the spacing in each axis.
            arterial_every: every ``arterial_every``-th row/column line is
                an arterial with a higher speed limit (0 disables).
            highway_rows: row lines that are highways (fastest class);
                useful for rural/intercity profiles.
        """
        if rows < 2 or cols < 2:
            raise DataGenError(f"grid needs at least 2x2 nodes, got {rows}x{cols}")
        if spacing_m <= 0:
            raise DataGenError(f"spacing must be positive, got {spacing_m}")
        if not 0 <= jitter_frac < 0.5:
            raise DataGenError(f"jitter_frac must be in [0, 0.5), got {jitter_frac}")
        roads: dict[Node, dict[Node, Road]] = {}
        positions: dict[Node, np.ndarray] = {}
        for r in range(rows):
            for c in range(cols):
                jitter = rng.uniform(-jitter_frac, jitter_frac, size=2) * spacing_m
                positions[(r, c)] = np.array([c * spacing_m, r * spacing_m]) + jitter
                roads[(r, c)] = {}

        def line_class(index: int, is_row: bool) -> str:
            if is_row and index in highway_rows:
                return "highway"
            if arterial_every and index % arterial_every == 0:
                return "arterial"
            return "local"

        for r in range(rows):
            row_class = line_class(r, is_row=True)
            for c in range(cols - 1):
                cls._lay_road(roads, positions, (r, c), (r, c + 1), row_class)
        for c in range(cols):
            col_class = line_class(c, is_row=False)
            for r in range(rows - 1):
                cls._lay_road(roads, positions, (r, c), (r + 1, c), col_class)
        return cls(roads, spacing_m, rows, cols, positions)

    @staticmethod
    def _lay_road(
        roads: dict[Node, dict[Node, Road]],
        positions: dict[Node, np.ndarray],
        u: Node,
        v: Node,
        road_class: str,
    ) -> None:
        length = float(np.hypot(*(positions[u] - positions[v])))
        limit = SPEED_LIMITS_MS[road_class]
        road = Road(length, limit, road_class, length / limit)
        roads[u][v] = road
        roads[v][u] = road

    def node_position(self, node: Node) -> np.ndarray:
        """Position of a node in metres, shape ``(2,)``."""
        return self._positions[node]

    def random_node(self, rng: np.random.Generator) -> Node:
        """A uniformly random intersection."""
        r = int(rng.integers(0, self.rows))
        c = int(rng.integers(0, self.cols))
        return (r, c)

    def nodes_near_distance(
        self,
        origin: Node,
        target_m: float,
        tolerance_m: float,
    ) -> list[Node]:
        """Nodes whose straight-line distance to ``origin`` is near a target.

        Used to pick route destinations that yield the desired net
        displacement (Table 2's displacement statistic).
        """
        origin_pos = self._positions[origin]
        out: list[Node] = []
        for node, pos in self._positions.items():
            if abs(float(np.hypot(*(pos - origin_pos))) - target_m) <= tolerance_m:
                out.append(node)
        return out

    @property
    def extent_m(self) -> float:
        """Nominal diagonal extent of the network in metres."""
        return float(np.hypot((self.cols - 1), (self.rows - 1)) * self.spacing_m)
