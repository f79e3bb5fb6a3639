"""Route planning over synthetic road networks.

A :class:`Route` is the geometric plan a simulated vehicle follows: the
polyline of intersection positions plus each leg's speed limit. Routes are
computed as travel-time shortest paths, which — exactly as for real
commuters — prefers arterials and highways and produces the mix of long
fast runs and short slow connectors that gives urban trajectories their
characteristic shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

import numpy as np

from repro.datagen.roadnet import Node, Road, RoadNetwork
from repro.exceptions import DataGenError

__all__ = ["Route", "plan_route", "random_route"]


@dataclass(frozen=True)
class Route:
    """A planned path: polyline positions and per-leg speed limits.

    Attributes:
        points: vertex positions, shape ``(m, 2)`` metres.
        speed_limits: per-leg limits, shape ``(m - 1,)`` m/s.
    """

    points: np.ndarray
    speed_limits: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        limits = np.asarray(self.speed_limits, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 2:
            raise DataGenError(f"route needs >= 2 polyline points, got {points.shape}")
        if limits.shape != (points.shape[0] - 1,):
            raise DataGenError(
                f"speed_limits shape {limits.shape} does not match "
                f"{points.shape[0] - 1} legs"
            )
        if np.any(limits <= 0):
            raise DataGenError("speed limits must be positive")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "speed_limits", limits)

    @property
    def leg_lengths(self) -> np.ndarray:
        """Length of each leg in metres, shape ``(m - 1,)``."""
        step = np.diff(self.points, axis=0)
        return np.hypot(step[:, 0], step[:, 1])

    @property
    def cumulative_lengths(self) -> np.ndarray:
        """Arc length at each vertex, shape ``(m,)``; starts at 0."""
        return np.concatenate([[0.0], np.cumsum(self.leg_lengths)])

    @property
    def total_length_m(self) -> float:
        return float(self.leg_lengths.sum())

    @property
    def displacement_m(self) -> float:
        """Straight-line origin-to-destination distance."""
        return float(np.hypot(*(self.points[-1] - self.points[0])))

    def turn_angles(self) -> np.ndarray:
        """Absolute heading change at interior vertices, radians [0, pi]."""
        step = np.diff(self.points, axis=0)
        headings = np.arctan2(step[:, 1], step[:, 0])
        diff = np.diff(headings)
        return np.abs((diff + np.pi) % (2.0 * np.pi) - np.pi)

    def position_at_arclength(self, s: float | np.ndarray) -> np.ndarray:
        """Interpolated position(s) at arc length(s) ``s`` along the route."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        cum = self.cumulative_lengths
        s_clipped = np.clip(s_arr, 0.0, cum[-1])
        idx = np.clip(
            np.searchsorted(cum, s_clipped, side="right") - 1, 0, len(cum) - 2
        )
        leg_len = cum[idx + 1] - cum[idx]
        frac = np.where(leg_len > 0, (s_clipped - cum[idx]) / leg_len, 0.0)
        pos = self.points[idx] + frac[:, None] * (
            self.points[idx + 1] - self.points[idx]
        )
        return pos[0] if np.isscalar(s) or np.ndim(s) == 0 else pos


def plan_route(
    network: RoadNetwork,
    origin: Node,
    destination: Node,
) -> Route:
    """Travel-time shortest path between two intersections.

    Raises:
        DataGenError: when origin equals destination or no path exists.
    """
    if origin == destination:
        raise DataGenError("route origin and destination coincide")
    if origin not in network.roads or destination not in network.roads:
        raise DataGenError(f"no route from {origin} to {destination}")
    nodes = _fastest_path(network.roads, origin, destination)
    points = np.array([network.node_position(node) for node in nodes])
    limits = np.array(
        [network.roads[u][v].speed_limit for u, v in zip(nodes, nodes[1:])]
    )
    return Route(points, limits)


def _fastest_path(
    roads: dict[Node, dict[Node, Road]], origin: Node, destination: Node
) -> list[Node]:
    """The least-travel-time node sequence from ``origin`` to ``destination``.

    Bidirectional Dijkstra, expanding the forward and the backward
    search in turn. Among equally fast paths it picks the one networkx
    3.6.1's ``bidirectional_dijkstra`` picks, which every generated trip
    depends on: it has the same alternation, ``(time, counter, node)``
    heap entries, neighbour order and meeting rule. The route oracle in
    the tests pins that choice.

    Raises:
        DataGenError: when no path joins the two.
    """
    # Index 0 is the forward search from the origin, 1 the backward one.
    done: tuple[dict[Node, float], dict[Node, float]] = ({}, {})
    seen: tuple[dict[Node, float], dict[Node, float]] = (
        {origin: 0.0},
        {destination: 0.0},
    )
    preds: tuple[dict[Node, Node], dict[Node, Node]] = ({}, {})
    order = count()
    fringe = ([(0.0, next(order), origin)], [(0.0, next(order), destination)])
    best: float | None = None
    meet = origin
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        time_s, _, node = heappop(fringe[direction])
        if node in done[direction]:
            continue
        done[direction][node] = time_s
        if node in done[1 - direction]:
            # Scanned from both ends: the best meeting seen is optimal.
            path = [meet]
            while path[-1] != origin:
                path.append(preds[0][path[-1]])
            path.reverse()
            while path[-1] != destination:
                path.append(preds[1][path[-1]])
            return path
        ahead, behind = seen[direction], seen[1 - direction]
        for neighbour, road in roads[node].items():
            if neighbour in done[direction]:
                continue
            reached = time_s + road.travel_time
            if neighbour not in ahead or reached < ahead[neighbour]:
                ahead[neighbour] = reached
                heappush(fringe[direction], (reached, next(order), neighbour))
                preds[direction][neighbour] = node
                if neighbour in behind:
                    total = reached + behind[neighbour]
                    if best is None or total < best:
                        best, meet = total, neighbour
    raise DataGenError(f"no route from {origin} to {destination}")


def _concatenate_routes(first: Route, second: Route) -> Route:
    """Join two routes where the first ends at the second's start."""
    points = np.concatenate([first.points, second.points[1:]])
    limits = np.concatenate([first.speed_limits, second.speed_limits])
    return Route(points, limits)


def random_route(
    network: RoadNetwork,
    rng: np.random.Generator,
    target_length_m: float,
    displacement_ratio: float = 0.53,
    max_attempts: int = 64,
) -> Route:
    """A random route whose length is roughly ``target_length_m``.

    Real trips are not shortest paths from A to B alone: the paper's
    trajectories travel about 1.9x their net displacement (Table 2:
    19.95 km length vs 10.58 km displacement). To reproduce that, the
    route picks an origin, a destination at straight-line distance
    ``displacement_ratio * target_length_m``, and a *via* intersection
    off the direct axis chosen so the two shortest-path legs sum to
    roughly the target length — the way an errand or a preferred road
    bends a real commute.

    Raises:
        DataGenError: when the network is too small for the requested
            length after ``max_attempts`` tries.
    """
    if target_length_m <= 0:
        raise DataGenError(f"target length must be positive, got {target_length_m}")
    target_disp = displacement_ratio * target_length_m
    if target_disp > network.extent_m:
        raise DataGenError(
            f"target displacement {target_disp:.0f} m exceeds network extent "
            f"{network.extent_m:.0f} m — use a larger network"
        )
    # Grid detour factor: shortest paths on a (jittered) lattice are
    # roughly this much longer than the straight line between endpoints.
    grid_factor = 1.18
    for attempt in range(max_attempts):
        origin = network.random_node(rng)
        tolerance = network.spacing_m * (1.0 + attempt / 8.0)
        candidates = network.nodes_near_distance(origin, target_disp, tolerance)
        candidates = [node for node in candidates if node != origin]
        if not candidates:
            continue
        destination = candidates[int(rng.integers(0, len(candidates)))]
        via = _pick_via_node(
            network, rng, origin, destination, target_length_m / grid_factor, tolerance
        )
        try:
            if via is None:
                return plan_route(network, origin, destination)
            first = plan_route(network, origin, via)
            second = plan_route(network, via, destination)
        except DataGenError:
            continue
        return _concatenate_routes(first, second)
    raise DataGenError(
        f"could not find a route of ~{target_length_m:.0f} m in {max_attempts} attempts"
    )


def _pick_via_node(
    network: RoadNetwork,
    rng: np.random.Generator,
    origin: Node,
    destination: Node,
    straight_length_m: float,
    tolerance_m: float,
) -> Node | None:
    """An intersection whose two straight legs sum to the target length.

    Geometrically: a point near the ellipse with foci at origin and
    destination whose leg sum is ``straight_length_m``. Returns None when
    the direct route already meets the target (no detour needed) or no
    candidate node lies near the ellipse.
    """
    origin_pos = network.node_position(origin)
    dest_pos = network.node_position(destination)
    direct = float(np.hypot(*(dest_pos - origin_pos)))
    if straight_length_m <= direct * 1.05:
        return None
    best: Node | None = None
    best_misfit = tolerance_m * 2.0
    # Sample a handful of random nodes rather than scanning all of them;
    # the lattice is dense enough that a few dozen draws find the ellipse.
    for _ in range(200):
        node = network.random_node(rng)
        if node in (origin, destination):
            continue
        pos = network.node_position(node)
        leg_sum = float(
            np.hypot(*(pos - origin_pos)) + np.hypot(*(dest_pos - pos))
        )
        misfit = abs(leg_sum - straight_length_m)
        if misfit < best_misfit:
            best = node
            best_misfit = misfit
    return best
